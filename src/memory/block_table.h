// Per-sequence KV page table (ISSUE 4/5): the ordered list of blocks
// holding one logical token span, vLLM block-table style.
//
// A table owns one reference on each of its blocks. Growth fills the
// partially-used tail block before allocating a new one; a *shared* partial
// tail (refcount > 1, i.e. a copy-on-write fork boundary) is duplicated
// first — the CoW copy the paper-adjacent systems pay on fork divergence —
// so writers never mutate pages a sibling still reads. The one exception is
// the page a sequence shares with the prefix cache after publishing its
// prompt (ISSUE 5): the cache owns the page's earlier slots and the
// sequence extends into the free tail slots, which is slot-disjoint and
// needs no copy; `set_cow_exempt` marks that page.
//
// Since ISSUE 5 tables are *path-aligned*: a sequence whose private span
// starts at token position `base` of its radix path carries
// `skew = base % block_size`, so its block boundaries coincide with the
// prefix cache's per-node block spans and publishing a prompt is a
// reference transfer (the cache AddRefs the very pages the sequence
// filled), not a copy. `ReleasePrefix` then drops the published front of
// the table, keeping any straddled boundary page shared with the cache.
// With block_size == 1 the skew is always zero and every operation reduces
// to the seed token arithmetic.
//
// `ForkFrom` shares a prefix of another table by taking references, which
// is how prefix reuse maps to block refs instead of token copies. Internal
// fragmentation (allocated-but-unfilled slots, counting the skewed head) is
// observable per table; the *exact* global figure lives with the replica,
// which sees both sides of every shared page.
//
// On a counted pool (one-token pages, BlockAllocator file comment) a table
// holds no ids: its pages are its tokens, the skew is zero, and every call
// is O(1) whatever its token count. The table asks its pool which kind it
// is. `ForkFrom` and `Truncate`, which only tests and micro_memory call,
// need named pages. A table's `holder` names it in the counted pool's
// co-held window; KvController tags each sequence slot with its SeqId.
//
// Tables keep their vector capacity across Clear() so pooled reuse
// (KvController's sequence slots) stays allocation-free in steady state.

#ifndef SKYWALKER_MEMORY_BLOCK_TABLE_H_
#define SKYWALKER_MEMORY_BLOCK_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/common/logging.h"
#include "src/memory/block_allocator.h"

namespace skywalker {

class BlockTable {
 public:
  int64_t num_tokens() const { return tokens_; }
  // A named table without ids holds no tokens either, and a counted table
  // never holds ids, so an empty id list means the pages are the tokens.
  int64_t num_blocks() const {
    return blocks_.empty() ? tokens_ : static_cast<int64_t>(blocks_.size());
  }
  // Named pools only (a counted table's is empty).
  const std::vector<BlockId>& blocks() const { return blocks_; }
  int32_t skew() const { return skew_; }

  PageHolder holder() const { return holder_; }
  void set_holder(PageHolder holder) { holder_ = holder; }

  int64_t padded_tokens(int32_t block_size) const {
    return num_blocks() * block_size;
  }
  // Slack slots assuming sole ownership: the skewed head (slots below the
  // path-aligned start) plus the unfilled tail. Overcounts pages shared
  // with the prefix cache, whose slots the cache occupies; the replica owns
  // the exact global figure.
  int64_t fragmentation_tokens(int32_t block_size) const {
    return padded_tokens(block_size) - skew_ - tokens_;
  }

  // Sets the path alignment of the table's first token (base % block_size).
  // Only valid on an empty table.
  void SetSkew(int32_t skew);

  // Marks `id` as exempt from the CoW-on-shared-tail rule: the sequence
  // extends into free slots of a page the prefix cache references (slot-
  // disjoint, no copy needed). The exemption only matters while the page is
  // the tail; it is cleared when the table releases the page (prefix drop,
  // truncate, clear), so a recycled id can never inherit it.
  void set_cow_exempt(BlockId id) { cow_exempt_ = id; }

  // Free slots in the tail block. Skew slots belong to the cached prefix
  // frame, not to this table, and an empty table has no tail block yet, so
  // nothing is available there. Always 0 with block_size == 1.
  int64_t tail_free(int32_t block_size) const {
    return blocks_.empty() ? 0 : num_blocks() * block_size - skew_ - tokens_;
  }

  // Whether the next append copies the tail first: a partial tail shared
  // with a fork, unless exempt. After that copy, or once the tail fills, the
  // tail is private, so only the first token of a run of appends can copy.
  bool TailCopies(const BlockAllocator& alloc, int32_t block_size) const {
    return tail_free(block_size) > 0 && alloc.ref_count(blocks_.back()) > 1 &&
           blocks_.back() != cow_exempt_;
  }

  // Appends `tokens`, allocating blocks as needed. A shared partial tail is
  // copy-on-write duplicated before being written into (unless exempt, see
  // above). Returns the net number of blocks allocated (CoW replacement
  // allocates one without changing the block count).
  int64_t Append(BlockAllocator& alloc, int32_t block_size, int64_t tokens);

  // Becomes a fork of `parent`'s first `tokens` tokens by taking references
  // on the covering blocks (inheriting the parent's skew). The table must
  // be empty and the pool named.
  void ForkFrom(BlockAllocator& alloc, const BlockTable& parent,
                int32_t block_size, int64_t tokens);

  // Drops the last `tokens` tokens, releasing blocks that become empty.
  // Returns the number of references released. Named pools only.
  int64_t Truncate(BlockAllocator& alloc, int32_t block_size, int64_t tokens);

  // Drops the first `tokens` tokens (the span just published to the prefix
  // cache): releases references on blocks fully before the new start and
  // advances the skew, keeping a straddled boundary page (now shared with
  // the cache) referenced. Returns the number of references released.
  int64_t ReleasePrefix(BlockAllocator& alloc, int32_t block_size,
                        int64_t tokens);

  // Releases every block reference; keeps vector capacity for reuse.
  // Returns the number of references released.
  int64_t Clear(BlockAllocator& alloc);

 private:
  std::vector<BlockId> blocks_;
  int64_t tokens_ = 0;
  int32_t skew_ = 0;
  BlockId cow_exempt_ = kInvalidBlockId;
  PageHolder holder_ = kNoPageHolder;
};

// Inline: decode appends one token per generated token per sequence, on a
// counted pool as on a named one.
inline int64_t BlockTable::Append(BlockAllocator& alloc, int32_t block_size,
                                  int64_t tokens) {
  SKYWALKER_CHECK(tokens >= 0);
  if (!alloc.named()) {
    alloc.AllocateCount(tokens);
    tokens_ += tokens;
    return tokens;
  }
  if (tokens == 0) {
    return 0;
  }
  int64_t allocated = 0;
  if (TailCopies(alloc, block_size)) {
    // Copy-on-write: the partial tail is shared with a fork; duplicate it
    // before writing. (Full shared blocks are immutable and stay shared;
    // the cache-shared boundary page is exempt — extension there fills
    // slots the cache never reads.)
    alloc.Release(blocks_.back());
    blocks_.back() = alloc.Allocate();
    alloc.NoteCowCopy();
    ++allocated;
  }
  const int64_t avail = tail_free(block_size);
  int64_t remaining = tokens - (avail < tokens ? avail : tokens);
  while (remaining > 0) {
    blocks_.push_back(alloc.Allocate());
    ++allocated;
    remaining -= block_size < remaining ? block_size : remaining;
  }
  tokens_ += tokens;
  return allocated;
}

}  // namespace skywalker

#endif  // SKYWALKER_MEMORY_BLOCK_TABLE_H_
