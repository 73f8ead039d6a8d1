/**
 * @file
 * Unit tests for the operator DAG and the chain/branch composition rule.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "models/dag.hh"
#include "sim/logging.hh"

namespace {

using infless::models::Dag;
using infless::models::DagBuilder;
using infless::models::NodeId;
using infless::models::OpKind;
using infless::models::OpNode;
using infless::sim::PanicError;

OpNode
node(double gflops, OpKind kind = OpKind::MatMul)
{
    return OpNode{kind, gflops};
}

TEST(DagTest, ChainCriticalPathIsSum)
{
    DagBuilder b;
    b.chain(node(1.0));
    b.chain(node(2.0));
    b.chain(node(3.0));
    Dag dag = b.build();
    auto weight = [](const OpNode &n) { return n.gflopsPerSample; };
    EXPECT_DOUBLE_EQ(dag.criticalPath(weight), 6.0);
    EXPECT_DOUBLE_EQ(dag.totalWork(weight), 6.0);
    EXPECT_DOUBLE_EQ(dag.branchOverlap(), 0.0);
}

TEST(DagTest, ParallelBranchesTakeMax)
{
    DagBuilder b;
    b.chain(node(1.0));
    b.parallel({{node(5.0)}, {node(2.0)}, {node(3.0)}},
               node(1.0, OpKind::ConcatV2));
    Dag dag = b.build();
    auto weight = [](const OpNode &n) { return n.gflopsPerSample; };
    // 1 (head) + max(5,2,3) + 1 (join) = 7
    EXPECT_DOUBLE_EQ(dag.criticalPath(weight), 7.0);
    EXPECT_DOUBLE_EQ(dag.totalWork(weight), 12.0);
    EXPECT_GT(dag.branchOverlap(), 0.0);
}

TEST(DagTest, MixedChainAndBranchComposition)
{
    DagBuilder b;
    b.chain(node(2.0));
    b.parallel({{node(4.0), node(1.0)}, {node(3.0)}},
               node(0.5, OpKind::Sum));
    b.chain(node(1.5));
    Dag dag = b.build();
    auto weight = [](const OpNode &n) { return n.gflopsPerSample; };
    // 2 + max(4+1, 3) + 0.5 + 1.5 = 9
    EXPECT_DOUBLE_EQ(dag.criticalPath(weight), 9.0);
}

TEST(DagTest, EmptyBranchActsAsResidualShortcut)
{
    DagBuilder b;
    b.chain(node(1.0));
    b.parallel({{node(4.0)}, {}}, node(0.0, OpKind::Sum));
    Dag dag = b.build();
    auto weight = [](const OpNode &n) { return n.gflopsPerSample; };
    EXPECT_DOUBLE_EQ(dag.criticalPath(weight), 5.0);
    // head -> join edge exists: 3 nodes, not 4.
    EXPECT_EQ(dag.size(), 3u);
}

TEST(DagTest, CycleDetection)
{
    Dag dag;
    auto a = dag.addNode(node(1.0));
    auto b = dag.addNode(node(1.0));
    dag.addEdge(a, b);
    EXPECT_TRUE(dag.isAcyclic());
    dag.addEdge(b, a);
    EXPECT_FALSE(dag.isAcyclic());
    EXPECT_THROW(dag.topoOrder(), PanicError);
}

TEST(DagTest, EditsAfterBuildDropTheCachedOrder)
{
    DagBuilder b;
    b.chain(node(1.0));
    b.chain(node(2.0));
    Dag dag = b.build();
    EXPECT_EQ(dag.topoOrder(), (std::vector<NodeId>{0, 1}));
    auto weight = [](const OpNode &n) { return n.gflopsPerSample; };
    auto tail = dag.addNode(node(4.0));
    EXPECT_DOUBLE_EQ(dag.criticalPath(weight), 4.0); // not yet connected
    dag.addEdge(1, tail);
    EXPECT_DOUBLE_EQ(dag.criticalPath(weight), 7.0);
    dag.finalize();
    EXPECT_EQ(dag.topoOrder(), (std::vector<NodeId>{0, 1, tail}));
    dag.addEdge(tail, 0);
    EXPECT_THROW(dag.topoOrder(), PanicError);
}

TEST(DagTest, SelfEdgeRejected)
{
    Dag dag;
    auto a = dag.addNode(node(1.0));
    EXPECT_THROW(dag.addEdge(a, a), PanicError);
}

TEST(DagTest, BadEdgeIdsRejected)
{
    Dag dag;
    auto a = dag.addNode(node(1.0));
    EXPECT_THROW(dag.addEdge(a, 99), PanicError);
    EXPECT_THROW(dag.addEdge(-1, a), PanicError);
}

TEST(DagTest, OpCountsAndDistinct)
{
    DagBuilder b;
    b.chain(node(1.0, OpKind::Conv2D));
    b.chain(node(1.0, OpKind::Conv2D));
    b.chain(node(1.0, OpKind::Relu));
    Dag dag = b.build();
    auto counts = dag.opCounts();
    EXPECT_EQ(counts[OpKind::Conv2D], 2);
    EXPECT_EQ(counts[OpKind::Relu], 1);
    EXPECT_EQ(dag.distinctOps(), 2);
}

TEST(DagTest, WorkByKindSumsPerKind)
{
    DagBuilder b;
    b.chain(node(1.0, OpKind::Conv2D));
    b.chain(node(2.5, OpKind::Conv2D));
    b.chain(node(0.5, OpKind::Relu));
    Dag dag = b.build();
    auto weight = [](const OpNode &n) { return n.gflopsPerSample; };
    auto work = dag.workByKind(weight);
    EXPECT_DOUBLE_EQ(work[OpKind::Conv2D], 3.5);
    EXPECT_DOUBLE_EQ(work[OpKind::Relu], 0.5);
}

TEST(DagTest, ScaleGflopsToTarget)
{
    DagBuilder b;
    b.chain(node(1.0));
    b.chain(node(3.0));
    Dag dag = b.build();
    dag.scaleGflopsTo(10.0);
    EXPECT_NEAR(dag.totalGflops(), 10.0, 1e-12);
    EXPECT_NEAR(dag.nodes()[0].gflopsPerSample, 2.5, 1e-12);
}

TEST(DagTest, ScaleZeroGraphPanics)
{
    DagBuilder b;
    b.chain(node(0.0));
    Dag dag = b.build();
    EXPECT_THROW(dag.scaleGflopsTo(1.0), PanicError);
}

TEST(DagTest, EmptyDagProperties)
{
    Dag dag;
    auto weight = [](const OpNode &) { return 1.0; };
    EXPECT_DOUBLE_EQ(dag.criticalPath(weight), 0.0);
    EXPECT_DOUBLE_EQ(dag.totalWork(weight), 0.0);
    EXPECT_TRUE(dag.isAcyclic());
}

TEST(DagTest, DiamondGraphLongestPath)
{
    // a -> {b, c} -> d with direct edges, not via builder.
    Dag dag;
    auto a = dag.addNode(node(1.0));
    auto b = dag.addNode(node(10.0));
    auto c = dag.addNode(node(2.0));
    auto d = dag.addNode(node(1.0));
    dag.addEdge(a, b);
    dag.addEdge(a, c);
    dag.addEdge(b, d);
    dag.addEdge(c, d);
    auto weight = [](const OpNode &n) { return n.gflopsPerSample; };
    EXPECT_DOUBLE_EQ(dag.criticalPath(weight), 12.0);
}

/** A weight whose bits depend on the node's kind and work. */
double
unevenWeight(const OpNode &n)
{
    return 0.1 * (static_cast<int>(n.kind) + 1) + n.gflopsPerSample / 3.0;
}

/** Node weights in NodeId order, for the span overload. */
std::vector<double>
weightsOf(const Dag &dag)
{
    std::vector<double> w;
    for (const OpNode &n : dag.nodes())
        w.push_back(unevenWeight(n));
    return w;
}

TEST(DagTest, SpanAndNodeWeightAgreeOnBranchyDag)
{
    DagBuilder b;
    b.chain(node(1.3, OpKind::Conv2D));
    b.parallel({{node(0.7), node(2.9, OpKind::Relu)},
                {node(3.1, OpKind::Conv2D)},
                {}},
               node(0.0, OpKind::ConcatV2));
    b.chain(node(0.4, OpKind::BatchNorm));
    b.parallel({{node(1.1, OpKind::Pooling), node(0.2)},
                {node(5.0, OpKind::Attention)}},
               node(0.3, OpKind::Sum));
    Dag dag = b.build();
    std::vector<double> w = weightsOf(dag);
    double by_span = dag.criticalPath(w);
    EXPECT_EQ(by_span, dag.criticalPath(unevenWeight));
    EXPECT_GT(by_span, 0.0);
}

TEST(DagTest, SpanAndNodeWeightAgreeOnEmptyDag)
{
    Dag dag;
    EXPECT_EQ(dag.criticalPath(std::span<const double>{}), 0.0);
    EXPECT_EQ(dag.criticalPath(unevenWeight), 0.0);
}

TEST(DagTest, SpanAndNodeWeightAgreeOnUnfinalizedDag)
{
    // Built edge by edge, never finalized: both overloads take a fresh
    // topological order.
    Dag dag;
    auto a = dag.addNode(node(1.7));
    auto b = dag.addNode(node(4.1, OpKind::Conv2D));
    auto c = dag.addNode(node(0.9, OpKind::Relu));
    auto d = dag.addNode(node(2.2));
    auto e = dag.addNode(node(0.6, OpKind::Sum));
    dag.addEdge(c, e); // ids out of topological order
    dag.addEdge(a, b);
    dag.addEdge(a, c);
    dag.addEdge(b, e);
    dag.addEdge(d, e);
    std::vector<double> w = weightsOf(dag);
    EXPECT_EQ(dag.criticalPath(w), dag.criticalPath(unevenWeight));
}

TEST(DagTest, SpanOfWrongSizeRejected)
{
    DagBuilder b;
    b.chain(node(1.0));
    b.chain(node(2.0));
    Dag dag = b.build();
    std::vector<double> w{1.0};
    EXPECT_THROW(dag.criticalPath(w), PanicError);
}

} // namespace
