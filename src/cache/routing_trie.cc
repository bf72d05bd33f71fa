#include "src/cache/routing_trie.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace skywalker {

RoutingTrie::RoutingTrie(int64_t capacity_tokens)
    : capacity_tokens_(capacity_tokens) {
  root_ = nodes_.Alloc();
}

RoutingTrie::~RoutingTrie() = default;

SlabId RoutingTrie::SplitAbove(SlabId id, size_t keep) {
  SlabId top = nodes_.Alloc();
  Node& lower = node(id);
  Node& upper = node(top);
  assert(keep > 0 && keep < lower.edge.size());

  upper.edge = lower.edge.Prefix(keep);
  pool_.AddRef(upper.edge);
  upper.parent = lower.parent;
  // Both halves keep the recorded targets.
  upper.targets.CopyFrom(lower.targets);
  upper.last_insert_gen = lower.last_insert_gen;
  upper.children.Clear();
  upper.children.Set(lower.edge[keep], id);

  *node(lower.parent).children.Find(lower.edge.front()) = top;
  lower.edge = lower.edge.Suffix(keep);  // Keeps the original chunk ref.
  lower.parent = top;
  ++num_nodes_;
  return top;
}

void RoutingTrie::Insert(TokenSpan seq, TargetId target) {
  uint64_t gen = next_gen_++;
  node(root_).targets.Set(target, gen);
  Slab<Node, 6>::Cursor cursor(&nodes_);
  SlabId cur = root_;
  Node* cur_node = &node(cur);
  size_t pos = 0;
  while (pos < seq.size()) {
    const SlabId* child_slot = cur_node->children.Find(seq[pos]);
    if (child_slot == nullptr) {
      SlabId leaf = nodes_.Alloc();
      Node& n = node(leaf);
      n.edge = pool_.Intern(seq.data() + pos, seq.size() - pos);
      n.children.Clear();
      n.parent = cur;
      n.targets.Clear();
      n.targets.Set(target, gen);
      n.last_insert_gen = gen;
      size_tokens_ += static_cast<int64_t>(n.edge.size());
      ++num_nodes_;
      // Re-resolve: Alloc above may have been the first touch of a new
      // chunk, but existing chunk addresses are stable, so cur_node holds.
      cur_node->children.Set(n.edge.front(), leaf);
      break;
    }
    SlabId child = *child_slot;
    Node* child_node = cursor.Deref(child);
    const size_t n =
        std::min<size_t>(child_node->edge.size(), seq.size() - pos);
    // First token is the child's map key: known equal, skip it.
    size_t matched = 1;
    if (n > 1) {
      matched += CommonPrefixLenRaw(child_node->edge.data + 1,
                                    seq.data() + pos + 1, n - 1);
    }
    if (matched < child_node->edge.size()) {
      child = SplitAbove(child, matched);
      child_node = &node(child);
    }
    child_node->targets.Set(target, gen);
    child_node->last_insert_gen = gen;
    pos += matched;
    cur = child;
    cur_node = child_node;
  }
  EvictToCapacity();
}

void RoutingTrie::RemoveTarget(TargetId target) {
  // DFS removing the target; prune empty leaves bottom-up.
  std::vector<SlabId> stack{root_};
  std::vector<SlabId> order;
  while (!stack.empty()) {
    SlabId id = stack.back();
    stack.pop_back();
    order.push_back(id);
    for (const auto& [token, child] : node(id).children) {
      (void)token;
      stack.push_back(child);
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    SlabId id = *it;
    Node& n = node(id);
    n.targets.Erase(target);
    if (id != root_ && n.children.empty() && n.targets.empty()) {
      RemoveLeaf(id);
    }
  }
}

void RoutingTrie::EvictToCapacity() {
  std::vector<SlabId> stack;
  while (size_tokens_ > capacity_tokens_) {
    // Earliest-inserted leaf first (paper: evict starting from the earliest
    // inserted records).
    SlabId victim = kNilSlabId;
    uint64_t oldest = std::numeric_limits<uint64_t>::max();
    stack.clear();
    stack.push_back(root_);
    while (!stack.empty()) {
      SlabId id = stack.back();
      stack.pop_back();
      const Node& n = node(id);
      for (const auto& [token, child] : n.children) {
        (void)token;
        stack.push_back(child);
      }
      if (id != root_ && n.children.empty() && n.last_insert_gen < oldest) {
        oldest = n.last_insert_gen;
        victim = id;
      }
    }
    if (victim == kNilSlabId) {
      break;
    }
    RemoveLeaf(victim);
  }
}

void RoutingTrie::RemoveLeaf(SlabId leaf) {
  Node& n = node(leaf);
  assert(n.children.empty());
  size_tokens_ -= static_cast<int64_t>(n.edge.size());
  --num_nodes_;
  node(n.parent).children.Erase(n.edge.front());
  pool_.Release(n.edge);
  n.edge = TokenSlice{};
  n.parent = kNilSlabId;
  n.targets.Clear();
  n.last_insert_gen = 0;
  nodes_.Free(leaf);
}

bool RoutingTrie::CheckInvariants() const {
  bool ok = true;
  int64_t tokens = 0;
  size_t nodes = 0;
  std::vector<SlabId> stack{root_};
  while (!stack.empty()) {
    SlabId id = stack.back();
    stack.pop_back();
    const Node& n = node(id);
    if (id != root_) {
      tokens += static_cast<int64_t>(n.edge.size());
      ++nodes;
      if (n.edge.empty()) {
        ok = false;
      }
      // Subset property: every target of a child must appear in the parent.
      if (n.parent != root_) {
        for (const auto& [target, gen] : n.targets) {
          (void)gen;
          if (node(n.parent).targets.Find(target) == nullptr) {
            ok = false;
          }
        }
      }
    }
    for (const auto& [token, child] : n.children) {
      const Node& c = node(child);
      if (c.edge.empty() || c.edge.front() != token || c.parent != id) {
        ok = false;
      }
      stack.push_back(child);
    }
  }
  if (tokens != size_tokens_ || nodes != num_nodes_) {
    ok = false;
  }
  if (nodes_.live() != num_nodes_ + 1 ||
      pool_.live_refs() != static_cast<int64_t>(num_nodes_)) {
    ok = false;
  }
  return ok;
}

}  // namespace skywalker
