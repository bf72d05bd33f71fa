// Token vocabulary shared by the replica KV cache, routing tries, and
// workload generators. The simulator never materializes text; requests carry
// token-id sequences directly, which is all that prefix matching needs.
//
// Requests do not own their tokens. A generator writes each conversation's
// transcript (and each ToT node's context) once, into an immutable buffer,
// and every prompt and output is a SharedTokens slice of it (DESIGN.md §2):
// issuing, forwarding and completing a request copy no tokens. Readers take
// a TokenSpan, which both a slice and a plain TokenSeq convert to.

#ifndef SKYWALKER_CACHE_TOKENS_H_
#define SKYWALKER_CACHE_TOKENS_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/hash.h"

namespace skywalker {

using Token = int32_t;
using TokenSeq = std::vector<Token>;

// A non-owning view of contiguous tokens: what prefix matching, tries and
// fingerprints read.
class TokenSpan {
 public:
  TokenSpan() = default;
  TokenSpan(const Token* data, size_t size) : data_(data), size_(size) {}
  // Implicit, so callers holding a TokenSeq pass it unchanged.
  TokenSpan(const TokenSeq& seq)  // NOLINT(google-explicit-constructor)
      : data_(seq.data()), size_(seq.size()) {}

  const Token* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Token& operator[](size_t i) const { return data_[i]; }
  const Token* begin() const { return data_; }
  const Token* end() const { return data_ + size_; }

 private:
  const Token* data_ = nullptr;
  size_t size_ = 0;
};

// An immutable slice [offset, offset + size) of a shared token buffer. The
// buffer never changes once built, and shared_ptr's atomic refcount lets a
// forwarded request carry its slice to another shard's thread. 24 bytes,
// the size of the TokenSeq it replaces.
class SharedTokens {
 public:
  SharedTokens() = default;
  // A fresh buffer of its own holding `seq`: for requests built from plain
  // vectors (tests, benchmarks). Implicit, so `req.prompt = seq;` works.
  SharedTokens(TokenSeq seq)  // NOLINT(google-explicit-constructor)
      : buffer_(std::make_shared<TokenSeq>(std::move(seq))),
        size_(static_cast<uint32_t>(buffer_->size())) {
    assert(buffer_->size() <= UINT32_MAX);
  }
  // The slice [offset, offset + size) of `buffer`.
  SharedTokens(std::shared_ptr<const TokenSeq> buffer, size_t offset,
               size_t size)
      : buffer_(std::move(buffer)),
        offset_(static_cast<uint32_t>(offset)),
        size_(static_cast<uint32_t>(size)) {
    // Buffers are generated, not read from input: a slice past the end or
    // past 2^32 tokens is a bug.
    assert(offset + size <= (buffer_ == nullptr ? 0 : buffer_->size()));
    assert(offset + size <= UINT32_MAX);
  }

  const Token* data() const {
    return buffer_ == nullptr ? nullptr : buffer_->data() + offset_;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Token& operator[](size_t i) const { return data()[i]; }
  const Token* begin() const { return data(); }
  const Token* end() const { return data() + size_; }

  operator TokenSpan() const {  // NOLINT(google-explicit-constructor)
    return TokenSpan(data(), size_);
  }
  // The whole buffer this slice views: what a cache edge that borrows the
  // slice's tokens holds to keep them alive.
  const std::shared_ptr<const TokenSeq>& buffer() const { return buffer_; }
  // A copy, for readers that keep a plain vector (trace records, the repo
  // benchmark's replays). Hot paths read the slice instead.
  operator TokenSeq() const {  // NOLINT(google-explicit-constructor)
    return TokenSeq(begin(), end());
  }

  // The slice directly after this one in the same buffer continues it.
  bool Continues(const SharedTokens& prev) const {
    return buffer_ == prev.buffer_ && prev.offset_ + prev.size_ == offset_;
  }

  // `a` then `b`. A view of their shared buffer when `b` continues `a` there
  // (every generated request's prompt and output); otherwise a fresh
  // concatenation.
  friend SharedTokens Concat(const SharedTokens& a, const SharedTokens& b) {
    if (b.Continues(a)) {
      return SharedTokens(a.buffer_, a.offset_, a.size_ + b.size_);
    }
    TokenSeq joined;
    joined.reserve(a.size() + b.size());
    joined.insert(joined.end(), a.begin(), a.end());
    joined.insert(joined.end(), b.begin(), b.end());
    return SharedTokens(std::move(joined));
  }

 private:
  std::shared_ptr<const TokenSeq> buffer_;
  uint32_t offset_ = 0;
  uint32_t size_ = 0;
};

static_assert(sizeof(SharedTokens) == sizeof(TokenSeq),
              "a slice must cost no more than the vector it replaces");

// Length of the common prefix of a[0..n) and b[0..n). The radix walk's
// innermost loop: the same address is the same tokens, which is the hot case
// once cache edges borrow the buffers of the requests that inserted them (a
// conversation's next turn walks its own transcript); long edges take one
// SIMD memcmp (full equality is the next hot case — walking through an
// interior node), short edges stay scalar because the memcmp call overhead
// would dominate a 1–2 token compare.
inline size_t CommonPrefixLenRaw(const Token* a, const Token* b, size_t n) {
  if (a == b) {
    return n;
  }
  if (n >= 16) {
    if (std::memcmp(a, b, n * sizeof(Token)) == 0) {
      return n;
    }
    // A mismatch exists strictly before n; scan unbounded to it.
    size_t i = 0;
    while (a[i] == b[i]) {
      ++i;
    }
    return i;
  }
  size_t i = 0;
  while (i < n && a[i] == b[i]) {
    ++i;
  }
  return i;
}

// Length of the longest common prefix of two sequences.
inline size_t CommonPrefixLen(TokenSpan a, TokenSpan b) {
  return CommonPrefixLenRaw(a.data(), b.data(), std::min(a.size(), b.size()));
}

// Prefix similarity as defined in §3.2 of the paper:
// len(common_prefix(a,b)) / min(len(a), len(b)). 1.0 when one sequence is a
// prefix of the other; 0 when either is empty.
inline double PrefixSimilarity(TokenSpan a, TokenSpan b) {
  size_t n = std::min(a.size(), b.size());
  if (n == 0) {
    return 0.0;
  }
  return static_cast<double>(CommonPrefixLen(a, b)) / static_cast<double>(n);
}

// Order-dependent 64-bit fingerprint of a token sequence.
inline uint64_t HashTokens(TokenSpan seq) {
  return HashBytes(seq.data(), seq.size() * sizeof(Token));
}

}  // namespace skywalker

#endif  // SKYWALKER_CACHE_TOKENS_H_
