/**
 * @file
 * Generator for the README accuracy-vs-speed table: run the SGM
 * path variants (8-path reference, 5-path and 4-path single-sweep)
 * over a generated scene sequence and report the three-pixel
 * bad-pixel rate and output density per variant.
 *
 * Usage: sgm_accuracy_table [frames] [seed]
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "data/scene.hh"
#include "stereo/disparity.hh"
#include "stereo/matcher.hh"

namespace
{

using namespace asv;

/** Fraction (percent) of pixels carrying a valid disparity. */
double
density(const stereo::DisparityMap &d)
{
    int64_t valid = 0;
    for (int y = 0; y < d.height(); ++y)
        for (int x = 0; x < d.width(); ++x)
            valid += stereo::isValidDisparity(d.at(x, y)) ? 1 : 0;
    const int64_t total = int64_t(d.width()) * d.height();
    return total ? 100.0 * double(valid) / double(total) : 0.0;
}

struct Variant
{
    const char *label;
    const char *opts;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace asv;

    const int frames = argc > 1 ? std::atoi(argv[1]) : 6;
    const uint64_t seed = argc > 2 ? uint64_t(std::atoll(argv[2])) : 42;

    data::SceneConfig cfg; // 256x128, disparities 4..40
    Rng rng(seed);
    data::Scene scene(cfg, rng);
    std::vector<data::StereoFrame> seq;
    seq.reserve(size_t(frames));
    for (int i = 0; i < frames; ++i)
        seq.push_back(scene.renderAndAdvance(rng));

    const Variant variants[] = {
        {"8-path (default)", "maxDisparity=48"},
        {"5-path", "maxDisparity=48,paths=5"},
        {"4-path", "maxDisparity=48,paths=4"},
    };

    // Windows are undefined at the borders; match the metric margin
    // to the disparity range so every variant is scored on the same
    // well-defined interior.
    const int margin = 8;

    std::printf("| Engine | bad-pixel %% (>3px) | density %% |\n");
    std::printf("| ------ | ------------------ | --------- |\n");
    for (const Variant &v : variants) {
        const auto matcher = stereo::makeMatcher("sgm", v.opts);
        double bad = 0.0, dens = 0.0;
        for (const data::StereoFrame &f : seq) {
            const stereo::DisparityMap d =
                matcher->compute(f.left, f.right, ExecContext::global());
            bad += stereo::badPixelRate(d, f.gtDisparity, 3.0, margin);
            dens += density(d);
        }
        std::printf("| %s | %.2f | %.1f |\n", v.label,
                    bad / double(frames), dens / double(frames));
    }
    return 0;
}
