/**
 * @file
 * dnn_dispnet: NetworkRuntime::forward in a closed loop on a
 * DispNet-shaped chain at quarter-scale KITTI (6 x 96 x 312).
 *
 * Encoder conv1..conv5b as in DispNetS, then four k4 s2 p1
 * deconvolutions, each followed by a 3x3 conv, and a 1-channel
 * head. No concat splices: the runtime executes plain chains only.
 * The traced run follows one forward span with the same layers run
 * one at a time through their public kernels — convNdInto for the
 * convolutions, transformedDeconv and the zero-insertion
 * tensor::deconvNd for the deconvolutions — at one SIMD level.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "deconv/transform.hh"
#include "dnn/network.hh"
#include "dnn/runtime.hh"
#include "host.hh"
#include "sched/schedule.hh"
#include "sim/accelerator.hh"
#include "stats.hh"
#include "tensor/conv.hh"
#include "tensor/deconv.hh"
#include "workload_common.hh"

namespace perfbench
{

namespace
{

using asv::dnn::LayerDesc;
using asv::dnn::LayerKind;
using asv::tensor::Shape;
using asv::tensor::Tensor;

constexpr int kSetups = 5;
//! layer repetitions in the traced per-layer pass
constexpr int kLayerReps = 3;

asv::dnn::Network
buildChain(int64_t height, int64_t width)
{
    using asv::dnn::Stage;
    const Stage fe = Stage::FeatureExtraction;
    const Stage mo = Stage::MatchingOptimization;
    const Stage dr = Stage::DisparityRefinement;
    asv::dnn::NetworkBuilder b("dispnet-chain", 6, {height, width});
    b.conv("conv1", 64, 7, 2, 3, fe).activation("relu1");
    b.conv("conv2", 128, 5, 2, 2, fe).activation("relu2");
    b.conv("conv3a", 256, 5, 2, 2, mo).activation("relu3a");
    b.conv("conv3b", 256, 3, 1, 1, mo).activation("relu3b");
    b.conv("conv4a", 512, 3, 2, 1, mo).activation("relu4a");
    b.conv("conv4b", 512, 3, 1, 1, mo).activation("relu4b");
    b.conv("conv5a", 512, 3, 2, 1, mo).activation("relu5a");
    b.conv("conv5b", 512, 3, 1, 1, mo).activation("relu5b");
    b.deconv("upconv4", 256, 4, 2, 1, dr).activation("relu_u4");
    b.conv("iconv4", 256, 3, 1, 1, dr).activation("relu_i4");
    b.deconv("upconv3", 128, 4, 2, 1, dr).activation("relu_u3");
    b.conv("iconv3", 128, 3, 1, 1, dr).activation("relu_i3");
    b.deconv("upconv2", 64, 4, 2, 1, dr).activation("relu_u2");
    b.conv("iconv2", 64, 3, 1, 1, dr).activation("relu_i2");
    b.deconv("upconv1", 32, 4, 2, 1, dr).activation("relu_u1");
    b.conv("iconv1", 32, 3, 1, 1, dr).activation("relu_i1");
    b.conv("pr1", 1, 3, 1, 1, dr);
    return b.build();
}

Tensor
randomTensor(Shape shape, asv::Rng &rng, double a = 1.0)
{
    Tensor t(std::move(shape));
    for (float &v : t.flat())
        v = float(rng.uniformReal(-a, a));
    return t;
}

/** One conv/deconv layer, prepared for standalone timing. */
struct LayerProbe
{
    const LayerDesc *desc = nullptr;
    Tensor input, weight, out;
    std::vector<float> bias;
    bool relu = false;
};

std::vector<LayerProbe>
makeProbes(const asv::dnn::Network &net, uint64_t seed)
{
    asv::Rng rng(seed);
    std::vector<LayerProbe> probes;
    const auto &layers = net.layers();
    for (size_t i = 0; i < layers.size(); ++i) {
        const LayerDesc &l = layers[i];
        if (l.kind != LayerKind::Conv && l.kind != LayerKind::Deconv)
            continue;
        LayerProbe p;
        p.desc = &l;
        Shape in{l.inChannels};
        in.insert(in.end(), l.inSpatial.begin(), l.inSpatial.end());
        p.input = randomTensor(in, rng);
        Shape w{l.outChannels, l.inChannels};
        w.insert(w.end(), l.kernel.begin(), l.kernel.end());
        const double fan_in = double(l.inChannels) * 16.0;
        p.weight = randomTensor(w, rng, std::sqrt(3.0 / fan_in));
        p.bias.assign(size_t(l.outChannels), 0.01f);
        p.relu = i + 1 < layers.size() &&
                 layers[i + 1].kind == LayerKind::Activation;
        probes.push_back(std::move(p));
    }
    return probes;
}

} // namespace

Report
runDnnDispnet(const RunOptions &opt)
{
    Report rep;
    const asv::dnn::Network net = buildChain(96, 312);
    const asv::dnn::NetworkStats ns = net.stats();
    asv::Rng rng(opt.seed);
    const Tensor input = randomTensor({6, 96, 312}, rng);
    RssPeak rss;

    // ---- set-up: pool + runtime (weights, plans, buffers) + one
    // warm-up forward.
    std::shared_ptr<asv::ThreadPool> pool;
    std::unique_ptr<asv::BufferPool> buffers;
    std::unique_ptr<asv::dnn::NetworkRuntime> rt;
    std::vector<double> setups;
    for (int r = 0; r < kSetups; ++r) {
        rt.reset();
        buffers.reset();
        pool.reset();
        const double t0 = wallNow();
        pool = std::make_shared<asv::ThreadPool>(opt.threads);
        buffers = std::make_unique<asv::BufferPool>();
        rt = std::make_unique<asv::dnn::NetworkRuntime>(net, opt.seed);
        (void)rt->forward(input, asv::ExecContext(*pool, *buffers));
        setups.push_back(wallNow() - t0);
        rss.sample();
    }
    const asv::ExecContext ctx(*pool, *buffers);

    // ---- timed closed loop.
    const double budget = opt.trace ? 0.5 * opt.seconds : opt.seconds;
    std::vector<FrameSample> frames;
    std::vector<double> ms;
    uint64_t first_hash = 0;
    bool stable = true;
    const double start = wallNow();
    while (wallNow() - start < budget) {
        const double cpu0 = processCpuNow();
        const double t0 = wallNow();
        const Tensor &out = rt->forward(input, ctx);
        const double t1 = wallNow();
        ms.push_back(1e3 * (t1 - t0));
        frames.push_back({ms.back(), 1e3 * (processCpuNow() - cpu0)});
        // forward() is deterministic: every output must be the same
        const uint64_t h =
            hashBytes(out.data(), sizeof(float) * size_t(out.size()));
        if (frames.size() == 1)
            first_hash = h;
        stable = stable && h == first_hash;
        rss.sample();
    }
    rep.attempted = int64_t(frames.size());
    addLatencyMetrics(rep, ms);
    if (!opt.trace) {
        rep.add("setup_s", median(setups), "s");
        addClosedLoopMetrics(rep, frames, rss);
    }
    rep.stamp("chain_gmac", fmt(double(ns.totalMacs) * 1e-9));
    rep.stamp("deconv_gmac_naive", fmt(double(ns.deconvMacs) * 1e-9));
    rep.stamp("deconv_gmac_useful",
              fmt(double(ns.deconvMacs - ns.deconvZeroMacs) * 1e-9));

    // ---- gates (outside the timed section).
    rep.gate(stable, "forward() output changed between calls");
    {
        // docs/KERNELS.md: f32 chains against the double-accumulation
        // reference agree to a relative k * 1e-5, k the longest
        // reduction in the chain.
        int64_t k_max = 1;
        for (const LayerDesc &l : net.layers())
            if (l.kind == LayerKind::Conv || l.kind == LayerKind::Deconv) {
                int64_t taps = l.inChannels;
                for (int64_t k : l.kernel)
                    taps *= k;
                k_max = std::max(k_max, taps);
            }
        const asv::dnn::Network small = buildChain(32, 32);
        asv::dnn::NetworkRuntime small_rt(small, opt.seed);
        const Tensor small_in = randomTensor(small_rt.inputShape(), rng);
        asv::ThreadPool check_pool(opt.workers);
        asv::BufferPool check_buffers;
        const asv::ExecContext check(check_pool, check_buffers);
        const Tensor &got = small_rt.forward(small_in, check);
        const double t_ref = wallNow();
        const Tensor ref = small_rt.referenceForward(small_in, check);
        rep.stamp("reference_forward_s", fmt(wallNow() - t_ref));
        double ref_max = 0.0;
        for (float v : ref.flat())
            ref_max = std::max(ref_max, double(std::fabs(v)));
        const double tol = 1e-5 * double(k_max) * std::max(1.0, ref_max);
        const bool same_shape = got.shape() == ref.shape();
        const double diff = same_shape ? got.maxAbsDiff(ref) : INFINITY;
        rep.stamp("forward_vs_reference",
                  "max |diff| " + fmt(diff) + ", tolerance " + fmt(tol));
        rep.gate(diff <= tol, "forward() differs from referenceForward() "
                              "by " + fmt(diff) + " (tolerance " +
                                  fmt(tol) + ")");
    }

    if (!opt.trace)
        return rep;

    // ---- traced: forward spans, then every layer through its
    // public kernel at the same shapes.
    Tracer tr;
    {
        const double t_start = wallNow();
        for (int64_t i = 0; i < 3 || wallNow() - t_start < 0.25 * opt.seconds;
             ++i) {
            TraceScope s(tr, "dnn.forward", i);
            (void)rt->forward(input, ctx);
        }
    }
    std::vector<LayerProbe> probes = makeProbes(net, opt.seed + 1);
    for (int r = 0; r < kLayerReps; ++r) {
        const int fwd = tr.begin("dnn.layers", r);
        for (LayerProbe &p : probes) {
            const LayerDesc &l = *p.desc;
            asv::tensor::ConvEpilogue ep;
            ep.bias = p.bias.data();
            ep.relu = p.relu;
            if (l.kind == LayerKind::Conv) {
                asv::tensor::ConvSpec spec;
                spec.stride = l.stride;
                spec.padLo = l.pad;
                spec.padHi = l.pad;
                if (p.out.size() == 0)
                    p.out = Tensor(asv::tensor::convOutShape(
                        p.input.shape(), p.weight.shape(), spec));
                TraceScope s(tr, "tensor.conv", r, fwd);
                asv::tensor::convNdInto(p.input, p.weight, spec, &ep, ctx,
                                        p.out);
            } else {
                asv::tensor::DeconvSpec spec;
                spec.stride = l.stride;
                spec.pad = l.pad;
                {
                    TraceScope s(tr, "deconv.transformed", r, fwd);
                    p.out = asv::deconv::transformedDeconv(
                        p.input, p.weight, spec, ep, nullptr, ctx);
                }
                // The zero-insertion baseline takes no ExecContext: it
                // runs on the global pool, sized to opt.threads, at the
                // same dispatched SIMD level.
                TraceScope s(tr, "deconv.reference", r, -1);
                (void)asv::tensor::deconvNd(p.input, p.weight, spec);
            }
        }
        tr.end(fwd);
    }

    const double reps = kLayerReps;
    const double conv_ms = tr.totalMs("tensor.conv") / reps;
    const double tdc_ms = tr.totalMs("deconv.transformed") / reps;
    const double ref_ms = tr.totalMs("deconv.reference") / reps;
    const double fwd_ms = median(tr.durationsMs("dnn.forward"));
    rep.add("tensor.conv_ms", conv_ms, "ms");
    rep.add("tensor.conv_gmacs_s",
            conv_ms > 0 ? double(ns.convMacs) * 1e-9 / (1e-3 * conv_ms) : 0,
            "GMAC/s");
    rep.add("deconv.transformed_ms", tdc_ms, "ms");
    rep.add("deconv.reference_ms", ref_ms, "ms");
    rep.add("deconv.dct_speedup", tdc_ms > 0 ? ref_ms / tdc_ms : 0.0,
            "x");
    rep.add("deconv.useful_mac_frac",
            ns.deconvMacs ? double(ns.deconvMacs - ns.deconvZeroMacs) /
                                double(ns.deconvMacs)
                          : 0.0,
            "ratio");
    rep.add("dnn.forward_ms", fwd_ms, "ms");
    rep.add("dnn.layer_sum_frac",
            fwd_ms > 0 ? (conv_ms + tdc_ms) / fwd_ms : 0.0, "ratio");
    rep.add("sim.dco_cycles",
            double(asv::sim::simulateNetwork(net, asv::sched::HardwareConfig{},
                                             asv::sim::Variant::Dct)
                       .cycles),
            "cycles");
    const double untraced = median(ms);
    rep.add("trace.overhead_pct",
            untraced > 0 ? 100.0 * (fwd_ms / untraced - 1) : 0.0, "%");
    rep.add("common.threadpool.fork_join_us", forkJoinUs(*pool), "us");
    addBufferPoolStats(rep, buffers->stats());
    rep.stamp("deconv_simd", asv::simd::activeName());
    writeTrace(rep, tr, opt, "dnn_dispnet");
    return rep;
}

} // namespace perfbench
