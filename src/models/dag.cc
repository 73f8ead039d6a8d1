#include "models/dag.hh"

#include <algorithm>
#include <queue>

#include "sim/logging.hh"

namespace infless::models {

NodeId
Dag::addNode(const OpNode &node)
{
    nodes_.push_back(node);
    succ_.emplace_back();
    pred_.emplace_back();
    topo_.clear();
    return static_cast<NodeId>(nodes_.size() - 1);
}

void
Dag::addEdge(NodeId from, NodeId to)
{
    sim::simAssert(from >= 0 && static_cast<std::size_t>(from) < size(),
                   "bad edge source ", from);
    sim::simAssert(to >= 0 && static_cast<std::size_t>(to) < size(),
                   "bad edge target ", to);
    sim::simAssert(from != to, "self edge on node ", from);
    succ_[static_cast<std::size_t>(from)].push_back(to);
    pred_[static_cast<std::size_t>(to)].push_back(from);
    topo_.clear();
}

std::vector<NodeId>
Dag::topoOrder() const
{
    if (topo_.size() == size())
        return topo_;
    std::vector<int> indegree(size(), 0);
    for (std::size_t v = 0; v < size(); ++v)
        indegree[v] = static_cast<int>(pred_[v].size());

    std::queue<NodeId> ready;
    for (std::size_t v = 0; v < size(); ++v) {
        if (indegree[v] == 0)
            ready.push(static_cast<NodeId>(v));
    }

    std::vector<NodeId> order;
    order.reserve(size());
    while (!ready.empty()) {
        NodeId v = ready.front();
        ready.pop();
        order.push_back(v);
        for (NodeId w : succ_[static_cast<std::size_t>(v)]) {
            if (--indegree[static_cast<std::size_t>(w)] == 0)
                ready.push(w);
        }
    }
    sim::simAssert(order.size() == size(), "operator graph has a cycle");
    return order;
}

bool
Dag::isAcyclic() const
{
    std::vector<int> indegree(size(), 0);
    for (std::size_t v = 0; v < size(); ++v)
        indegree[v] = static_cast<int>(pred_[v].size());
    std::queue<NodeId> ready;
    for (std::size_t v = 0; v < size(); ++v) {
        if (indegree[v] == 0)
            ready.push(static_cast<NodeId>(v));
    }
    std::size_t seen = 0;
    while (!ready.empty()) {
        NodeId v = ready.front();
        ready.pop();
        ++seen;
        for (NodeId w : succ_[static_cast<std::size_t>(v)]) {
            if (--indegree[static_cast<std::size_t>(w)] == 0)
                ready.push(w);
        }
    }
    return seen == size();
}

double
Dag::criticalPath(std::span<const double> weights) const
{
    sim::simAssert(weights.size() == size(), "critical path needs ",
                   size(), " node weights, got ", weights.size());
    if (empty())
        return 0.0;
    // The cached order when finalize() has run; a fresh one otherwise.
    std::vector<NodeId> fresh;
    const std::vector<NodeId> &order =
        topo_.size() == size() ? topo_ : (fresh = topoOrder());
    std::vector<double> finish(size(), 0.0);
    double best = 0.0;
    for (NodeId v : order) {
        auto vi = static_cast<std::size_t>(v);
        double start = 0.0;
        for (NodeId p : pred_[vi])
            start = std::max(start, finish[static_cast<std::size_t>(p)]);
        finish[vi] = start + weights[vi];
        best = std::max(best, finish[vi]);
    }
    return best;
}

double
Dag::criticalPath(const NodeWeight &weight) const
{
    std::vector<double> weights;
    weights.reserve(size());
    for (const OpNode &n : nodes_)
        weights.push_back(weight(n));
    return criticalPath(weights);
}

double
Dag::totalWork(const NodeWeight &weight) const
{
    double total = 0.0;
    for (const auto &n : nodes_)
        total += weight(n);
    return total;
}

std::map<OpKind, int>
Dag::opCounts() const
{
    std::map<OpKind, int> counts;
    for (const auto &n : nodes_)
        ++counts[n.kind];
    return counts;
}

std::map<OpKind, double>
Dag::workByKind(const NodeWeight &weight) const
{
    std::map<OpKind, double> work;
    for (const auto &n : nodes_)
        work[n.kind] += weight(n);
    return work;
}

int
Dag::distinctOps() const
{
    return static_cast<int>(opCounts().size());
}

double
Dag::totalGflops() const
{
    return totalWork([](const OpNode &n) { return n.gflopsPerSample; });
}

double
Dag::branchOverlap() const
{
    auto weight = [](const OpNode &n) { return n.gflopsPerSample; };
    double total = totalWork(weight);
    if (total <= 0.0)
        return 0.0;
    return 1.0 - criticalPath(weight) / total;
}

void
Dag::scaleGflopsTo(double gflops)
{
    double total = totalGflops();
    sim::simAssert(total > 0.0, "cannot scale an all-zero graph");
    double factor = gflops / total;
    for (auto &n : nodes_)
        n.gflopsPerSample *= factor;
}

NodeId
DagBuilder::chain(const OpNode &node)
{
    NodeId id = dag_.addNode(node);
    if (tail_ >= 0)
        dag_.addEdge(tail_, id);
    tail_ = id;
    return id;
}

NodeId
DagBuilder::parallel(const std::vector<std::vector<OpNode>> &branches,
                     const OpNode &join)
{
    sim::simAssert(!branches.empty(), "parallel() needs branches");
    NodeId fork = tail_;
    NodeId join_id = dag_.addNode(join);
    for (const auto &branch : branches) {
        NodeId prev = fork;
        for (const auto &op : branch) {
            NodeId id = dag_.addNode(op);
            if (prev >= 0)
                dag_.addEdge(prev, id);
            prev = id;
        }
        if (prev >= 0 && prev != fork) {
            dag_.addEdge(prev, join_id);
        } else if (fork >= 0) {
            // Empty branch: direct fork -> join shortcut (residual link).
            dag_.addEdge(fork, join_id);
        }
    }
    tail_ = join_id;
    return join_id;
}

} // namespace infless::models
