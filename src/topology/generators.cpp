#include "topology/generators.h"

#include <initializer_list>
#include <stdexcept>
#include <string>

#include "util/rng.h"
#include "util/strings.h"

namespace contra::topology {

namespace {

/// `prefix` followed by `parts` joined with '_' ("a1_0"). Built by appending
/// to one string: GCC 12 flags `"a" + std::to_string(p)` chains with a false
/// -Wrestrict warning in optimized builds.
std::string node_name(const char* prefix, std::initializer_list<uint32_t> parts) {
  std::string name = prefix;
  const char* sep = "";
  for (const uint32_t part : parts) {
    name += sep;
    name += std::to_string(part);
    sep = "_";
  }
  return name;
}

}  // namespace

Topology fat_tree(uint32_t k, LinkParams params) {
  if (k < 2 || k % 2 != 0) throw std::invalid_argument("fat-tree arity must be even and >= 2");
  Topology topo;
  const uint32_t half = k / 2;
  const uint32_t num_core = half * half;

  std::vector<NodeId> core(num_core);
  for (uint32_t i = 0; i < num_core; ++i) core[i] = topo.add_node(node_name("c", {i}));

  // Per pod: k/2 aggregation + k/2 edge switches.
  for (uint32_t p = 0; p < k; ++p) {
    std::vector<NodeId> agg(half);
    std::vector<NodeId> edge(half);
    for (uint32_t i = 0; i < half; ++i) {
      agg[i] = topo.add_node(node_name("a", {p, i}));
    }
    for (uint32_t i = 0; i < half; ++i) {
      edge[i] = topo.add_node(node_name("e", {p, i}));
    }
    // Full bipartite edge<->agg inside the pod.
    for (uint32_t e = 0; e < half; ++e) {
      for (uint32_t a = 0; a < half; ++a) {
        topo.add_link(edge[e], agg[a], params.capacity_bps, params.delay_s);
      }
    }
    // Aggregation switch i connects to core switches [i*half, (i+1)*half).
    for (uint32_t a = 0; a < half; ++a) {
      for (uint32_t c = 0; c < half; ++c) {
        topo.add_link(agg[a], core[a * half + c], params.capacity_bps, params.delay_s);
      }
    }
  }
  return topo;
}

FatTreeLayer fat_tree_layer(const Topology& topo, NodeId node) {
  const std::string& n = topo.name(node);
  if (n.empty()) return FatTreeLayer::kUnknown;
  // Leaf-spine names map onto the two-tier special case, which lets the
  // tree-specialized dataplanes (HULA) run on leaf-spine fabrics too.
  if (util::starts_with(n, "leaf")) return FatTreeLayer::kEdge;
  if (util::starts_with(n, "spine")) return FatTreeLayer::kAgg;
  switch (n[0]) {
    case 'c': return FatTreeLayer::kCore;
    case 'a': return FatTreeLayer::kAgg;
    case 'e': return FatTreeLayer::kEdge;
    default: return FatTreeLayer::kUnknown;
  }
}

Topology leaf_spine(uint32_t leaves, uint32_t spines, LinkParams params) {
  Topology topo;
  std::vector<NodeId> leaf(leaves);
  std::vector<NodeId> spine(spines);
  for (uint32_t i = 0; i < leaves; ++i) leaf[i] = topo.add_node(node_name("leaf", {i}));
  for (uint32_t i = 0; i < spines; ++i) spine[i] = topo.add_node(node_name("spine", {i}));
  for (uint32_t l = 0; l < leaves; ++l) {
    for (uint32_t s = 0; s < spines; ++s) {
      topo.add_link(leaf[l], spine[s], params.capacity_bps, params.delay_s);
    }
  }
  return topo;
}

Topology random_connected(uint32_t nodes, double avg_degree, uint64_t seed, LinkParams params) {
  if (nodes == 0) throw std::invalid_argument("random topology needs at least one node");
  util::Rng rng(seed);
  Topology topo;
  for (uint32_t i = 0; i < nodes; ++i) topo.add_node(node_name("n", {i}));

  // Random spanning tree: attach each node to a random earlier node.
  for (uint32_t i = 1; i < nodes; ++i) {
    const NodeId parent = static_cast<NodeId>(rng.uniform_int(0, i - 1));
    topo.add_link(i, parent, params.capacity_bps, params.delay_s);
  }
  // Extra edges until the target average degree (each cable adds degree 2).
  const uint64_t target_cables = static_cast<uint64_t>(avg_degree * nodes / 2.0);
  uint64_t attempts = 0;
  while (topo.num_links() / 2 < target_cables && attempts < target_cables * 50) {
    ++attempts;
    const NodeId a = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    const NodeId b = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    if (a == b || topo.adjacent(a, b)) continue;
    topo.add_link(a, b, params.capacity_bps, params.delay_s);
  }
  return topo;
}

Topology ring(uint32_t n, LinkParams params) {
  if (n < 3) throw std::invalid_argument("ring needs at least 3 nodes");
  Topology topo;
  for (uint32_t i = 0; i < n; ++i) topo.add_node(node_name("n", {i}));
  for (uint32_t i = 0; i < n; ++i) {
    topo.add_link(i, (i + 1) % n, params.capacity_bps, params.delay_s);
  }
  return topo;
}

Topology line(uint32_t n, LinkParams params) {
  if (n < 2) throw std::invalid_argument("line needs at least 2 nodes");
  Topology topo;
  for (uint32_t i = 0; i < n; ++i) topo.add_node(node_name("n", {i}));
  for (uint32_t i = 0; i + 1 < n; ++i) {
    topo.add_link(i, i + 1, params.capacity_bps, params.delay_s);
  }
  return topo;
}

Topology grid(uint32_t rows, uint32_t cols, LinkParams params) {
  if (rows == 0 || cols == 0) throw std::invalid_argument("grid dims must be positive");
  Topology topo;
  auto id = [&](uint32_t r, uint32_t c) { return r * cols + c; };
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      topo.add_node(node_name("g", {r, c}));
    }
  }
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) topo.add_link(id(r, c), id(r, c + 1), params.capacity_bps, params.delay_s);
      if (r + 1 < rows) topo.add_link(id(r, c), id(r + 1, c), params.capacity_bps, params.delay_s);
    }
  }
  return topo;
}

Topology running_example() {
  Topology topo;
  const NodeId a = topo.add_node("A");
  const NodeId b = topo.add_node("B");
  const NodeId c = topo.add_node("C");
  const NodeId d = topo.add_node("D");
  LinkParams params;
  topo.add_link(a, b, params.capacity_bps, params.delay_s);
  topo.add_link(a, c, params.capacity_bps, params.delay_s);
  topo.add_link(b, c, params.capacity_bps, params.delay_s);
  topo.add_link(b, d, params.capacity_bps, params.delay_s);
  topo.add_link(c, d, params.capacity_bps, params.delay_s);
  return topo;
}

}  // namespace contra::topology
