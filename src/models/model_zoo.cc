#include "models/model_zoo.hh"

#include <utility>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace infless::models {

namespace {

/** Shorthand node constructor (relative weight; scaled afterwards). */
OpNode
op(OpKind kind, double weight)
{
    return OpNode{kind, weight};
}

/** Stable hash of a model name for the deviation key. */
std::uint64_t
nameKey(const std::string &name)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (unsigned char c : name)
        h = sim::hashCombine(h, c);
    return h;
}

/** ResNet-50: 53 convolutions across 16 bottleneck blocks; Conv2D takes
 *  >95% of execution time over 8 distinct operator kinds (Fig. 7b). */
Dag
buildResNet50()
{
    DagBuilder b;
    b.chain(op(OpKind::Conv2D, 1.2));
    b.chain(op(OpKind::BatchNorm, 0.005));
    b.chain(op(OpKind::Relu, 0.003));
    b.chain(op(OpKind::Pooling, 0.01));
    for (int block = 0; block < 16; ++block) {
        bool downsample = block % 4 == 0;
        std::vector<OpNode> main = {
            op(OpKind::Conv2D, 0.6),  op(OpKind::BatchNorm, 0.005),
            op(OpKind::Relu, 0.003),  op(OpKind::Conv2D, 1.0),
            op(OpKind::BatchNorm, 0.005), op(OpKind::Relu, 0.003),
            op(OpKind::Conv2D, 0.6),  op(OpKind::BatchNorm, 0.005),
        };
        std::vector<OpNode> shortcut;
        if (downsample) {
            shortcut = {op(OpKind::Conv2D, 0.5),
                        op(OpKind::BatchNorm, 0.005)};
        }
        b.parallel({main, shortcut}, op(OpKind::Sum, 0.004));
        b.chain(op(OpKind::Relu, 0.003));
    }
    b.chain(op(OpKind::Pooling, 0.01));
    b.chain(op(OpKind::BiasAdd, 0.002));
    b.chain(op(OpKind::MatMul, 0.08));
    b.chain(op(OpKind::Softmax, 0.002));
    return b.build();
}

/** ResNet-20: the small CIFAR-style residual net of Fig. 3a. */
Dag
buildResNet20()
{
    DagBuilder b;
    b.chain(op(OpKind::Conv2D, 1.0));
    b.chain(op(OpKind::BatchNorm, 0.01));
    b.chain(op(OpKind::Relu, 0.005));
    for (int block = 0; block < 9; ++block) {
        std::vector<OpNode> main = {
            op(OpKind::Conv2D, 1.0), op(OpKind::BatchNorm, 0.01),
            op(OpKind::Relu, 0.005), op(OpKind::Conv2D, 1.0),
            op(OpKind::BatchNorm, 0.01),
        };
        std::vector<OpNode> shortcut;
        if (block % 3 == 0)
            shortcut = {op(OpKind::Conv2D, 0.4)};
        b.parallel({main, shortcut}, op(OpKind::Sum, 0.008));
        b.chain(op(OpKind::Relu, 0.005));
    }
    b.chain(op(OpKind::Pooling, 0.01));
    b.chain(op(OpKind::MatMul, 0.05));
    b.chain(op(OpKind::Softmax, 0.004));
    return b.build();
}

/** LSTM-2365: 81 MatMul calls; (Fused)MatMul ~76% of time (Fig. 7a).
 *  The four gates of each cell compute in parallel branches, giving this
 *  graph the highest branch overlap in the zoo — and hence the highest
 *  COP prediction error, as in Fig. 8. */
Dag
buildLstm2365()
{
    DagBuilder b;
    b.chain(op(OpKind::Embedding, 0.01));
    b.chain(op(OpKind::Reshape, 0.05));
    for (int step = 0; step < 20; ++step) {
        std::vector<std::vector<OpNode>> gates = {
            {op(OpKind::MatMul, 1.0), op(OpKind::Sigmoid, 0.15)},
            {op(OpKind::MatMul, 1.0), op(OpKind::Sigmoid, 0.15)},
            {op(OpKind::MatMul, 1.0), op(OpKind::Sigmoid, 0.15)},
            {op(OpKind::MatMul, 1.0), op(OpKind::Tanh, 0.15)},
        };
        b.parallel(gates, op(OpKind::ConcatV2, 0.25));
        b.chain(op(OpKind::Mul, 0.3));
        b.chain(op(OpKind::Sum, 0.2));
    }
    b.chain(op(OpKind::FusedMatMul, 2.0));
    b.chain(op(OpKind::FusedMatMul, 2.0));
    b.chain(op(OpKind::MatMul, 1.0)); // 81st MatMul (output projection)
    b.chain(op(OpKind::BiasAdd, 0.05));
    b.chain(op(OpKind::Softmax, 0.5));
    return b.build();
}

/** BERT-v1: 12 transformer layers. */
Dag
buildBert()
{
    DagBuilder b;
    b.chain(op(OpKind::Embedding, 0.01));
    b.chain(op(OpKind::LayerNorm, 0.02));
    for (int layer = 0; layer < 12; ++layer) {
        std::vector<std::vector<OpNode>> attn = {
            {op(OpKind::Attention, 4.0)},
            {}, // residual shortcut
        };
        b.parallel(attn, op(OpKind::Sum, 0.01));
        b.chain(op(OpKind::LayerNorm, 0.02));
        std::vector<std::vector<OpNode>> ffn = {
            {op(OpKind::FusedMatMul, 8.0), op(OpKind::Relu, 0.02),
             op(OpKind::MatMul, 8.0)},
            {}, // residual shortcut
        };
        b.parallel(ffn, op(OpKind::Sum, 0.01));
        b.chain(op(OpKind::LayerNorm, 0.02));
    }
    b.chain(op(OpKind::MatMul, 1.0));
    b.chain(op(OpKind::Tanh, 0.02));
    b.chain(op(OpKind::Softmax, 0.01));
    return b.build();
}

/** VGGNet: a deep convolution chain; no branch structure at all. */
Dag
buildVgg()
{
    DagBuilder b;
    for (int conv = 0; conv < 13; ++conv) {
        b.chain(op(OpKind::Conv2D, 1.0));
        b.chain(op(OpKind::Relu, 0.004));
        if (conv == 1 || conv == 3 || conv == 6 || conv == 9 || conv == 12)
            b.chain(op(OpKind::Pooling, 0.01));
    }
    b.chain(op(OpKind::MatMul, 0.5));
    b.chain(op(OpKind::Relu, 0.004));
    b.chain(op(OpKind::MatMul, 0.3));
    b.chain(op(OpKind::Relu, 0.004));
    b.chain(op(OpKind::MatMul, 0.1));
    b.chain(op(OpKind::Softmax, 0.004));
    return b.build();
}

/** SSD: convolution backbone plus six parallel detection heads. */
Dag
buildSsd()
{
    DagBuilder b;
    for (int conv = 0; conv < 10; ++conv) {
        b.chain(op(OpKind::Conv2D, 1.0));
        b.chain(op(OpKind::Relu, 0.005));
        if (conv % 3 == 2)
            b.chain(op(OpKind::Pooling, 0.01));
    }
    std::vector<std::vector<OpNode>> heads;
    for (int head = 0; head < 6; ++head) {
        heads.push_back({op(OpKind::Conv2D, 0.25),
                         op(OpKind::Conv2D, 0.2),
                         op(OpKind::Reshape, 0.002)});
    }
    b.parallel(heads, op(OpKind::ConcatV2, 0.02));
    b.chain(op(OpKind::Softmax, 0.01));
    return b.build();
}

/** DSSM-2365: two embedding towers joined by a similarity head. The
 *  evaluation section refers to the same Q&A matcher as DSSM-2389. */
Dag
buildDssm()
{
    DagBuilder b;
    std::vector<std::vector<OpNode>> towers = {
        {op(OpKind::Embedding, 0.01), op(OpKind::MatMul, 1.0),
         op(OpKind::Tanh, 0.05), op(OpKind::MatMul, 0.8),
         op(OpKind::Tanh, 0.05)},
        {op(OpKind::Embedding, 0.01), op(OpKind::MatMul, 1.0),
         op(OpKind::Tanh, 0.05), op(OpKind::MatMul, 0.8),
         op(OpKind::Tanh, 0.05)},
    };
    b.parallel(towers, op(OpKind::Mul, 0.05));
    b.chain(op(OpKind::Sum, 0.02));
    b.chain(op(OpKind::MatMul, 0.3));
    b.chain(op(OpKind::Softmax, 0.02));
    return b.build();
}

/** DeepSpeech: convolution front-end plus bidirectional recurrent core. */
Dag
buildDeepSpeech()
{
    DagBuilder b;
    b.chain(op(OpKind::Conv2D, 1.0));
    b.chain(op(OpKind::Relu, 0.01));
    b.chain(op(OpKind::Conv2D, 1.0));
    b.chain(op(OpKind::Relu, 0.01));
    for (int layer = 0; layer < 5; ++layer) {
        std::vector<std::vector<OpNode>> directions = {
            {op(OpKind::MatMul, 1.0), op(OpKind::Relu, 0.01)},
            {op(OpKind::MatMul, 1.0), op(OpKind::Relu, 0.01)},
        };
        b.parallel(directions, op(OpKind::ConcatV2, 0.02));
    }
    b.chain(op(OpKind::MatMul, 0.6));
    b.chain(op(OpKind::Softmax, 0.02));
    return b.build();
}

/** MobileNet: depthwise-separable convolution chain. */
Dag
buildMobileNet()
{
    DagBuilder b;
    b.chain(op(OpKind::Conv2D, 0.8));
    for (int block = 0; block < 13; ++block) {
        b.chain(op(OpKind::DepthwiseConv2D, 0.25));
        b.chain(op(OpKind::BatchNorm, 0.01));
        b.chain(op(OpKind::Relu, 0.005));
        b.chain(op(OpKind::Conv2D, 0.75));
        b.chain(op(OpKind::BatchNorm, 0.01));
        b.chain(op(OpKind::Relu, 0.005));
    }
    b.chain(op(OpKind::Pooling, 0.01));
    b.chain(op(OpKind::MatMul, 0.1));
    b.chain(op(OpKind::Softmax, 0.005));
    return b.build();
}

/** TextCNN-69: embedding into three parallel convolution widths. */
Dag
buildTextCnn()
{
    DagBuilder b;
    b.chain(op(OpKind::Embedding, 0.01));
    std::vector<std::vector<OpNode>> widths;
    for (int width = 0; width < 3; ++width) {
        widths.push_back({op(OpKind::Conv2D, 1.0), op(OpKind::Relu, 0.01),
                          op(OpKind::Pooling, 0.02)});
    }
    b.parallel(widths, op(OpKind::ConcatV2, 0.03));
    b.chain(op(OpKind::MatMul, 0.4));
    b.chain(op(OpKind::Softmax, 0.01));
    return b.build();
}

/** MNIST: a two-layer perceptron; the smallest model in the zoo. */
Dag
buildMnist()
{
    DagBuilder b;
    b.chain(op(OpKind::MatMul, 1.0));
    b.chain(op(OpKind::Relu, 0.05));
    b.chain(op(OpKind::MatMul, 0.3));
    b.chain(op(OpKind::Softmax, 0.02));
    return b.build();
}

ModelInfo
makeModel(std::string name, double size_mb, double gflops,
          std::string domain, Dag dag)
{
    dag.scaleGflopsTo(gflops);
    ModelInfo info;
    info.name = name;
    info.sizeMb = size_mb;
    info.gflops = gflops;
    info.domain = std::move(domain);
    info.dag = std::move(dag);
    info.noiseKey = nameKey(name);
    return info;
}

} // namespace

ModelZoo::ModelZoo()
{
    // Table 1, largest first.
    models_.push_back(makeModel("Bert-v1", 391, 22.2,
                                "Language processing", buildBert()));
    models_.push_back(makeModel("ResNet-50", 98, 3.89,
                                "Image classification", buildResNet50()));
    models_.push_back(makeModel("VGGNet", 69, 5.55,
                                "Feature localisation", buildVgg()));
    models_.push_back(makeModel("LSTM-2365", 39, 0.10, "Text Q&A system",
                                buildLstm2365()));
    models_.push_back(makeModel("ResNet-20", 36, 1.55,
                                "Image classification", buildResNet20()));
    models_.push_back(
        makeModel("SSD", 29, 2.02, "Object detection", buildSsd()));
    models_.push_back(makeModel("DSSM-2365", 25, 0.13, "Text Q&A system",
                                buildDssm()));
    models_.push_back(makeModel("DeepSpeech", 17, 1.60,
                                "Speech recognition", buildDeepSpeech()));
    models_.push_back(makeModel("MobileNet", 17, 0.05, "Mobile network",
                                buildMobileNet()));
    models_.push_back(makeModel("TextCNN-69", 11, 0.53,
                                "Text classification", buildTextCnn()));
    models_.push_back(
        makeModel("MNIST", 0.072, 0.01, "Number recognition", buildMnist()));
}

const ModelInfo &
ModelZoo::get(const std::string &name) const
{
    // The paper refers to the DSSM matcher both as DSSM-2365 (Table 1) and
    // DSSM-2389 (§5.1); accept both.
    const std::string &key = (name == "DSSM-2389") ? "DSSM-2365" : name;
    for (const auto &m : models_) {
        if (m.name == key)
            return m;
    }
    sim::fatal("unknown model: ", name);
}

const ModelZoo &
ModelZoo::shared()
{
    static const ModelZoo zoo;
    return zoo;
}

std::vector<std::string>
ModelZoo::osvtModels()
{
    return {"SSD", "MobileNet", "ResNet-50"};
}

std::vector<std::string>
ModelZoo::qaRobotModels()
{
    return {"TextCNN-69", "LSTM-2365", "DSSM-2365"};
}

} // namespace infless::models
