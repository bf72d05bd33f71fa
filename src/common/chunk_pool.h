// Pooled immutable storage for slab-backed radix structures (ISSUE 3/5).
//
// The seed trees copied their per-node payloads (edge labels; since ISSUE 5
// also per-node KV block-id spans) into per-node std::vector buffers: every
// insert allocated, and every edge split copied both halves. Today the
// routing trie's edge labels and the prefix cache's block spans live here
// (the prefix cache's edge labels borrow request buffers). A ChunkPool<T>
// instead appends inserted spans into large shared chunks exactly once;
// nodes hold PoolSlice<T> views {data pointer, chunk id, length} into those
// chunks. Splitting an edge is pointer arithmetic (both halves alias the
// same chunk — views may even overlap, as block-span splits do at a
// straddled page), and the only steady-state cost is a per-chunk reference
// count.
//
// Chunks are reference-counted by the number of slices viewing them and are
// recycled through a free list once sealed and unreferenced, so eviction
// churn returns memory to the pool rather than the heap. The cost is
// fragmentation: a chunk survives while ANY slice into it lives, so the
// worst case is one 64 KiB chunk pinned per live node — far above the
// seed's per-node buffers. That pathology needs most of a chunk's interners
// to die while a tiny slice survives every chunk; LRU eviction kills
// same-era edges together, which keeps real occupancy near the live element
// count (verify with num_chunks()/free_chunks() before suspecting the trees
// themselves).
//
// Slices never span chunks; a span longer than kChunkElems gets a dedicated
// exactly-sized chunk that is freed (not recycled) on release.

#ifndef SKYWALKER_COMMON_CHUNK_POOL_H_
#define SKYWALKER_COMMON_CHUNK_POOL_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace skywalker {

// Non-owning view of pooled elements. The owner (a radix node) must pair
// every retained slice with ChunkPool::AddRef/Release on the slice's chunk.
template <typename T>
struct PoolSlice {
  const T* data = nullptr;
  uint32_t chunk = UINT32_MAX;  // Pool chunk id for refcounting.
  uint32_t len = 0;

  bool empty() const { return len == 0; }
  size_t size() const { return len; }
  T front() const { return data[0]; }
  T back() const { return data[len - 1]; }
  T operator[](size_t i) const { return data[i]; }

  // Sub-views alias the same chunk; the caller owns the refcounting. Views
  // may overlap (block-span splits share the straddled page id).
  PoolSlice Prefix(size_t n) const {
    return PoolSlice{data, chunk, static_cast<uint32_t>(n)};
  }
  PoolSlice Suffix(size_t from) const {
    return PoolSlice{data + from, chunk, static_cast<uint32_t>(len - from)};
  }
};

template <typename T>
class ChunkPool {
 public:
  // 16K elements = 64 KiB per chunk (for 4-byte T): large enough that
  // steady-state inserts amortize to zero allocations, small enough that a
  // few retained slices don't strand much memory.
  static constexpr uint32_t kChunkElems = 16 * 1024;

  ChunkPool() = default;
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;
  ~ChunkPool() = default;

  // Copies `len` elements into pooled storage and returns a slice holding
  // one reference on its chunk.
  PoolSlice<T> Intern(const T* elems, size_t len) {
    assert(len > 0);
    uint32_t id;
    if (len > kChunkElems) {
      id = AcquireChunk(len);  // Dedicated, exactly-sized chunk.
    } else {
      if (open_ == UINT32_MAX ||
          chunks_[open_].used + len > chunks_[open_].capacity) {
        // Seal the old open chunk; if nothing references it any more, it
        // can be recycled immediately.
        if (open_ != UINT32_MAX && chunks_[open_].refs == 0) {
          free_standard_.push_back(open_);
        }
        open_ = AcquireChunk(len);
      }
      id = open_;
    }
    Chunk& chunk = chunks_[id];
    T* dst = chunk.elems.get() + chunk.used;
    std::memcpy(dst, elems, len * sizeof(T));
    chunk.used += static_cast<uint32_t>(len);
    chunk.refs += 1;
    live_refs_ += 1;
    return PoolSlice<T>{dst, id, static_cast<uint32_t>(len)};
  }

  // One additional retained slice views the chunk (e.g. an edge split).
  void AddRef(const PoolSlice<T>& slice) {
    if (slice.chunk == UINT32_MAX) {
      return;  // Null slice (e.g. a root node's empty edge).
    }
    chunks_[slice.chunk].refs += 1;
    live_refs_ += 1;
  }

  // A retained slice was dropped. When a sealed chunk's count reaches zero
  // it is recycled (or deallocated, for oversized chunks).
  void Release(const PoolSlice<T>& slice) {
    if (slice.chunk == UINT32_MAX) {
      return;
    }
    Chunk& chunk = chunks_[slice.chunk];
    assert(chunk.refs > 0);
    chunk.refs -= 1;
    live_refs_ -= 1;
    if (chunk.refs != 0 || slice.chunk == open_) {
      return;  // Still referenced, or still accepting appends.
    }
    if (chunk.oversized) {
      // Oversized chunks are one-shot: return the memory, recycle the slot.
      chunk.elems.reset();
      chunk.capacity = 0;
      chunk.used = 0;
      free_slots_.push_back(slice.chunk);
    } else {
      chunk.used = 0;
      free_standard_.push_back(slice.chunk);
    }
  }

  // Diagnostics (CheckInvariants / DESIGN.md numbers).
  size_t num_chunks() const { return chunks_.size(); }
  size_t free_chunks() const { return free_standard_.size(); }
  int64_t live_refs() const { return live_refs_; }

 private:
  struct Chunk {
    // Deliberately uninitialized storage (new T[n], not vector): a fresh
    // chunk is written before it is read, and zero-filling 64 KiB would
    // dominate the cost of short-lived caches (one per simulated replica).
    std::unique_ptr<T[]> elems;
    uint32_t capacity = 0;
    uint32_t used = 0;
    int64_t refs = 0;
    bool oversized = false;
  };

  uint32_t AcquireChunk(size_t min_elems) {
    if (min_elems <= kChunkElems && !free_standard_.empty()) {
      uint32_t id = free_standard_.back();
      free_standard_.pop_back();
      chunks_[id].used = 0;
      return id;
    }
    uint32_t id;
    if (!free_slots_.empty()) {
      id = free_slots_.back();
      free_slots_.pop_back();
    } else {
      id = static_cast<uint32_t>(chunks_.size());
      chunks_.emplace_back();
      // The free lists never hold more entries than chunks exist, so
      // growing their capacity alongside the chunk vector (geometrically)
      // keeps steady-state Release/Intern churn strictly allocation-free.
      if (free_standard_.capacity() < chunks_.size()) {
        free_standard_.reserve(chunks_.capacity());
      }
      if (free_slots_.capacity() < chunks_.size()) {
        free_slots_.reserve(chunks_.capacity());
      }
    }
    Chunk& chunk = chunks_[id];
    chunk.oversized = min_elems > kChunkElems;
    chunk.capacity =
        static_cast<uint32_t>(chunk.oversized ? min_elems : kChunkElems);
    chunk.elems.reset(new T[chunk.capacity]);  // Uninitialized on purpose.
    chunk.used = 0;
    chunk.refs = 0;
    return id;
  }

  std::vector<Chunk> chunks_;
  std::vector<uint32_t> free_standard_;  // Recyclable standard-size chunks.
  std::vector<uint32_t> free_slots_;  // Chunk ids whose storage was freed.
  uint32_t open_ = UINT32_MAX;        // Chunk accepting appends.
  int64_t live_refs_ = 0;
};

}  // namespace skywalker

#endif  // SKYWALKER_COMMON_CHUNK_POOL_H_
