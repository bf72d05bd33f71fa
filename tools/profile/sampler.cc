// CPU-time stack sampler, loaded with LD_PRELOAD into a program that was not
// built for profiling (hosts without `perf`):
//
//   SKYPROF_OUT=prof.txt LD_PRELOAD=build/libskyprof.so PROGRAM ARGS...
//   python3 tools/profile/report.py prof.txt
//
// At load it arms ITIMER_PROF, which delivers SIGPROF after every
// millisecond of CPU time the process uses, on any of its threads; the
// kernel rounds the interval up to its timer tick (4 ms on a 4-vCPU x86
// Linux container). Each SIGPROF records the interrupted thread's stack
// with glibc's backtrace(). At exit the samples and /proc/self/maps, which
// the report needs to resolve addresses, go to SKYPROF_OUT (default
// skyprof.<pid>.txt).
//
// Limits: samples past kMaxSamples are counted as dropped; a sample taken
// while the thread holds the dynamic loader's lock (dlopen, the first
// unwind) could deadlock, so the constructor unwinds once to load the
// unwinder before arming the timer.

#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr int kMaxDepth = 64;
constexpr int kMaxSamples = 1 << 16;
constexpr long kIntervalUs = 1000;

struct Sample {
  int depth;
  void* frames[kMaxDepth];
};

// Zero-initialized storage: only the pages samples touch become resident.
Sample g_samples[kMaxSamples];
std::atomic<int> g_next{0};
std::atomic<long> g_dropped{0};

// The interrupted instruction, so the handler's own frames and the signal
// trampoline can be cut off the recorded stack.
void* InterruptedPc(void* context) {
  auto* uc = static_cast<ucontext_t*>(context);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

void OnProf(int /*sig*/, siginfo_t* /*info*/, void* context) {
  const int saved_errno = errno;
  const int slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxSamples) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  void* frames[kMaxDepth + 4];
  const int n = backtrace(frames, kMaxDepth + 4);
  // Frames before the interrupted pc belong to this handler and the
  // trampoline; without a pc, drop the usual two.
  int first = n < 2 ? n : 2;
  const void* pc = InterruptedPc(context);
  for (int i = 0; i < n && i < 4; ++i) {
    if (frames[i] == pc) {
      first = i;
      break;
    }
  }
  Sample& sample = g_samples[slot];
  sample.depth = 0;
  for (int i = first; i < n && sample.depth < kMaxDepth; ++i) {
    sample.frames[sample.depth++] = frames[i];
  }
  errno = saved_errno;
}

void SetTimer(long interval_us) {
  itimerval timer{};
  timer.it_interval.tv_sec = interval_us / 1000000;
  timer.it_interval.tv_usec = interval_us % 1000000;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((constructor)) void Start() {
  void* warm[4];
  backtrace(warm, 4);  // Loads the unwinder outside any signal handler.
  struct sigaction action {};
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  SetTimer(kIntervalUs);
}

__attribute__((destructor)) void Stop() {
  SetTimer(0);
  signal(SIGPROF, SIG_IGN);
  char path[256];
  if (const char* out = std::getenv("SKYPROF_OUT")) {
    std::snprintf(path, sizeof(path), "%s", out);
  } else {
    std::snprintf(path, sizeof(path), "skyprof.%d.txt",
                  static_cast<int>(getpid()));
  }
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "skyprof: cannot write %s\n", path);
    return;
  }
  const int taken = std::min(g_next.load(), kMaxSamples);
  std::fprintf(f, "SKYPROF1 interval_us=%ld samples=%d dropped=%ld\n",
               kIntervalUs, taken, g_dropped.load());
  for (int s = 0; s < taken; ++s) {
    const Sample& sample = g_samples[s];
    std::fprintf(f, "S");
    for (int i = 0; i < sample.depth; ++i) {
      std::fprintf(f, " %p", sample.frames[i]);
    }
    std::fprintf(f, "\n");
  }
  std::fprintf(f, "MAPS\n");
  if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      std::fputs(line, f);
    }
    std::fclose(maps);
  }
  std::fclose(f);
  std::fprintf(stderr, "skyprof: %d samples (%ld dropped) -> %s\n", taken,
               g_dropped.load(), path);
}

}  // namespace
