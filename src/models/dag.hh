/**
 * @file
 * Operator task graph (DAG).
 *
 * COP (§3.3) estimates a model's latency by decomposing its graph into
 * sequence chains (time = sum) and parallel branches (time = max). Both
 * rules are the single-source longest path of the DAG under per-node
 * weights, which is what criticalPath() computes.
 */

#ifndef INFLESS_MODELS_DAG_HH
#define INFLESS_MODELS_DAG_HH

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "models/operator.hh"

namespace infless::models {

/** Node index within a Dag. */
using NodeId = std::int32_t;

/**
 * A directed acyclic graph of operator calls.
 */
class Dag
{
  public:
    /** Weight function mapping a node to a scalar (e.g. execution time). */
    using NodeWeight = std::function<double(const OpNode &)>;

    /** Add a node; returns its id. Drops the cached order. */
    NodeId addNode(const OpNode &node);

    /** Add a dependency edge @p from -> @p to. Panics on bad ids. Drops
     *  the cached order. */
    void addEdge(NodeId from, NodeId to);

    /**
     * Compute and cache the topological order, so criticalPath() (run on
     * every COP composition) stops rebuilding it. DagBuilder::build()
     * calls this; the cache is plain state, safe to read from many
     * threads. Panics if the graph has a cycle.
     */
    void finalize() { topo_ = topoOrder(); }

    std::size_t size() const { return nodes_.size(); }
    bool empty() const { return nodes_.empty(); }

    const std::vector<OpNode> &nodes() const { return nodes_; }

    /**
     * Topological order of all nodes; panics if the graph has a cycle.
     * Served from the cache after finalize().
     */
    std::vector<NodeId> topoOrder() const;

    /** True when the edge relation is acyclic. */
    bool isAcyclic() const;

    /**
     * Longest path under per-node weights indexed by NodeId — the
     * chain-sum / branch-max composition rule of COP. @p weights must
     * hold one entry per node.
     */
    double criticalPath(std::span<const double> weights) const;

    /** criticalPath() with each node weighed by @p weight. */
    double criticalPath(const NodeWeight &weight) const;

    /** Sum of weights over all nodes (fully serialized execution). */
    double totalWork(const NodeWeight &weight) const;

    /** Number of calls per operator kind. */
    std::map<OpKind, int> opCounts() const;

    /** Total per-kind weight (e.g. GFLOPs by kind, for Fig. 7). */
    std::map<OpKind, double> workByKind(const NodeWeight &weight) const;

    /** Number of distinct operator kinds used. */
    int distinctOps() const;

    /** Sum of gflopsPerSample over all nodes. */
    double totalGflops() const;

    /**
     * How much branch parallelism the graph has: 1 - critical/total under
     * GFLOPs weights. Zero for a pure chain; larger for graphs with more
     * overlapping execution paths (used to spread the prediction-noise
     * model, matching LSTM-2365's higher COP error in Fig. 8).
     */
    double branchOverlap() const;

    /** Uniformly scale all node GFLOPs so the total equals @p gflops. */
    void scaleGflopsTo(double gflops);

  private:
    std::vector<OpNode> nodes_;
    std::vector<std::vector<NodeId>> succ_;
    std::vector<std::vector<NodeId>> pred_;
    /** Order cached by finalize(); valid while it covers every node. */
    std::vector<NodeId> topo_;
};

/**
 * Convenience builder that grows a DAG as a main chain with optional
 * parallel branch groups, the two structures COP decomposes into.
 */
class DagBuilder
{
  public:
    /** Append @p node after the current tail; returns its id. */
    NodeId chain(const OpNode &node);

    /**
     * Append a group of parallel branches between the current tail and a
     * new join node. Each inner vector is one branch (a chain).
     *
     * @param branches Per-branch op sequences; must be non-empty.
     * @param join Node that joins the branches (e.g. ConcatV2 or Sum).
     * @return Id of the join node, which becomes the new tail.
     */
    NodeId parallel(const std::vector<std::vector<OpNode>> &branches,
                    const OpNode &join);

    /** Take the finished graph, its topological order cached. */
    Dag
    build()
    {
        dag_.finalize();
        return std::move(dag_);
    }

  private:
    Dag dag_;
    NodeId tail_ = -1;
};

} // namespace infless::models

#endif // INFLESS_MODELS_DAG_HH
