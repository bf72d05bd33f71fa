// Pooled immutable token storage for the routing trie.
//
// Since ISSUE 5 the chunk/slice machinery is the generic ChunkPool<T>
// (src/common/chunk_pool.h), shared with the prefix cache's per-node KV
// block spans; this header keeps the token-typed names. The prefix cache's
// edges borrow their requests' buffers instead (src/cache/prefix_cache.h),
// so RoutingTrie is the one structure that copies tokens into chunks.

#ifndef SKYWALKER_CACHE_TOKEN_POOL_H_
#define SKYWALKER_CACHE_TOKEN_POOL_H_

#include "src/cache/tokens.h"
#include "src/common/chunk_pool.h"

namespace skywalker {

using TokenSlice = PoolSlice<Token>;
using TokenPool = ChunkPool<Token>;

}  // namespace skywalker

#endif  // SKYWALKER_CACHE_TOKEN_POOL_H_
