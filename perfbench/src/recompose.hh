/**
 * @file
 * IsmPipeline::processFrame re-composed from the public per-stage
 * functions (ismDecideKeyFrame, Matcher::compute, ismFlow x2,
 * ismPropagate), so the traced runs can put a span around each
 * stage from outside the library. The correctness gates require its
 * output to be bit-identical to the pipeline it mirrors.
 */

#ifndef PERFBENCH_RECOMPOSE_HH
#define PERFBENCH_RECOMPOSE_HH

#include <memory>

#include "common/buffer_pool.hh"
#include "common/exec_context.hh"
#include "common/thread_pool.hh"
#include "core/ism.hh"
#include "core/sequencer.hh"
#include "stereo/matcher.hh"
#include "trace.hh"

namespace perfbench
{

class IsmRecomposer
{
  public:
    IsmRecomposer(asv::core::IsmParams params,
                  std::shared_ptr<const asv::stereo::Matcher> matcher,
                  asv::ThreadPool &pool)
        : params_(params), matcher_(std::move(matcher)),
          sequencer_(asv::core::makeStaticSequencer(
              params.propagationWindow)),
          pool_(pool)
    {
    }

    /**
     * One frame, spanned into @p tracer as "frame" with the stage
     * spans as its children. @p frame / @p stream tag the spans.
     */
    asv::stereo::DisparityMap
    step(const asv::image::Image &left, const asv::image::Image &right,
         Tracer &tracer, int64_t frame, int stream)
    {
        TraceScope f(tracer, "frame", frame, -1, stream);
        bool key = false;
        {
            TraceScope s(tracer, "core.decide", frame, f.id(), stream);
            key = asv::core::ismDecideKeyFrame(
                *sequencer_, left, index_, !prevDisparity_.empty());
        }
        ++index_;
        const asv::ExecContext ctx(pool_, buffers_);
        asv::stereo::DisparityMap out;
        if (key) {
            TraceScope s(tracer, "stereo.sgm.compute", frame, f.id(),
                         stream);
            out = matcher_->compute(left, right, ctx);
        } else {
            asv::flow::FlowField flow_l, flow_r;
            {
                TraceScope s(tracer, "flow.ism_flow", frame, f.id(),
                             stream);
                flow_l = asv::core::ismFlow(prevLeft_, left, params_,
                                            ctx);
            }
            {
                TraceScope s(tracer, "flow.ism_flow", frame, f.id(),
                             stream);
                flow_r = asv::core::ismFlow(prevRight_, right, params_,
                                            ctx);
            }
            TraceScope s(tracer, "core.propagate", frame, f.id(),
                         stream);
            out = asv::core::ismPropagate(left, right, prevDisparity_,
                                          flow_l, flow_r, params_,
                                          ctx);
        }
        TraceScope s(tracer, "core.carry", frame, f.id(), stream);
        prevLeft_ = left;
        prevRight_ = right;
        prevDisparity_ = out;
        return out;
    }

  private:
    asv::core::IsmParams params_;
    std::shared_ptr<const asv::stereo::Matcher> matcher_;
    std::unique_ptr<asv::core::KeyFrameSequencer> sequencer_;
    asv::ThreadPool &pool_;
    asv::BufferPool buffers_;
    int64_t index_ = 0;
    asv::image::Image prevLeft_, prevRight_;
    asv::stereo::DisparityMap prevDisparity_;
};

} // namespace perfbench

#endif // PERFBENCH_RECOMPOSE_HH
