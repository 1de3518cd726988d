/**
 * @file
 * Regret of ChooseCtasPerSm's batch-feature rule against the simulated
 * 2-vs-4 CTAs/SM winner, over fixed signature sets (docs/DESIGN.md
 * S4.1): the Fig. 13 grid, the Fig. 11 grid, and a seeded sample of
 * serving-shaped signatures that the rule was not fit on.
 *
 * Regret is chosen / best - 1. Agreement is the share of signatures on
 * which the rule names the faster configuration; on every set it must
 * be at least that of always picking 4 CTAs/SM, the best constant
 * choice.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "common/stats.h"
#include "core/attention.h"
#include "core/pod_kernel.h"
#include "model/model_config.h"

namespace pod::core {
namespace {

struct RuleScore
{
    int signatures = 0;
    int agree = 0;         ///< Rule names the simulated winner.
    int four_agree = 0;    ///< Always-4 names the simulated winner.
    int below_serial = 0;  ///< Rule's pick slower than FA_Serial.
    SampleStats regret;
};

/** Simulate both configurations of `batch` and score the rule. */
void
Score(const kernels::HybridBatch& batch, const gpusim::GpuSpec& spec,
      double serial_time, RuleScore* score)
{
    AttnRunOptions two;
    two.pod.ctas_per_sm = CtasPerSm::kTwo;
    AttnRunOptions four;
    four.pod.ctas_per_sm = CtasPerSm::kFour;
    double t2 = RunAttention(Backend::kPod, batch, spec, two).total_time;
    double t4 = RunAttention(Backend::kPod, batch, spec, four).total_time;
    int winner = t2 <= t4 ? 2 : 4;
    int pick = ChooseCtasPerSm(batch, spec, PodOptions());
    double chosen = pick == 2 ? t2 : t4;
    ++score->signatures;
    if (pick == winner) ++score->agree;
    if (winner == 4) ++score->four_agree;
    if (serial_time > 0.0 && chosen > serial_time * 1.001) {
        ++score->below_serial;
    }
    score->regret.Add(chosen / std::min(t2, t4) - 1.0);
}

void
Report(const char* name, const RuleScore& s)
{
    std::printf("%s: %d signatures, rule agrees on %d (always-4: %d), "
                "regret median %.2f%% p99 %.1f%% max %.1f%%, "
                "%d below serial\n",
                name, s.signatures, s.agree, s.four_agree,
                100.0 * s.regret.Median(), 100.0 * s.regret.Percentile(99),
                100.0 * s.regret.Max(), s.below_serial);
}

TEST(CtaRuleRegret, Fig13Grid)
{
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    kernels::AttnShape shape = model::ModelConfig::Llama3_8B().ShapePerGpu(2);
    RuleScore s;
    for (int ctx : {2048, 4096, 8192, 16384, 20480}) {
        for (int bs : {32, 64, 128, 192, 256}) {
            Score(kernels::HybridBatch::Make(shape, 2048, ctx, bs, ctx), spec,
                  0.0, &s);
        }
    }
    Report("fig13", s);
    EXPECT_GE(s.agree, s.four_agree);
    // Measured: 24/25 cells, 6.2 % regret in the one miss (2K, bs 128).
    EXPECT_GE(s.agree, 24);
    EXPECT_LT(s.regret.Max(), 0.07);
}

TEST(CtaRuleRegret, Fig11Grid)
{
    // Fig. 11's sweep and its paper filter (both phases >= 20 % of the
    // serial runtime), as bench_fig11_speedup_dist runs it.
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    const kernels::AttnShape shapes[] = {
        model::ModelConfig::Yi6B().ShapePerGpu(1),
        model::ModelConfig::Llama2_7B().ShapePerGpu(2),
        model::ModelConfig::Llama3_8B().ShapePerGpu(2),
    };
    RuleScore s;
    for (const auto& shape : shapes) {
        for (int ctx : {4096, 8192, 12288, 16384, 20480}) {
            for (int chunk : {512, 1024, 1536, 2048}) {
                for (int bs : {16, 32, 64, 96, 128, 192, 256}) {
                    for (int dctx : {4096, 8192, 16384}) {
                        auto batch = kernels::HybridBatch::Make(
                            shape, chunk, ctx, bs, dctx);
                        AttnRunResult serial =
                            RunAttention(Backend::kFaSerial, batch, spec);
                        double prefill_frac =
                            serial.prefill_time / serial.total_time;
                        if (prefill_frac < 0.2 || prefill_frac > 0.8) {
                            continue;
                        }
                        Score(batch, spec, serial.total_time, &s);
                    }
                }
            }
        }
    }
    Report("fig11", s);
    // The filter reads the default analytic core's FA_Serial times.
    EXPECT_EQ(s.signatures, 722);
    EXPECT_GE(s.agree, s.four_agree);
    EXPECT_LE(s.regret.Median(), 0.01);
    // The rule leaves 8 of 722 batches below serial, all one geometry
    // (1536-token chunk, 512 decode units); simulating both
    // configurations left none. A finding, not a target: see
    // docs/EXPERIMENTS.md.
    EXPECT_LE(s.below_serial, 8);
}

TEST(CtaRuleRegret, HeldOutServingSignatures)
{
    // Serving-shaped signatures as the memo cache keys them (one
    // chunk against its context, uniform decodes) for Llama-3-8B TP-2,
    // drawn from a seed the rule was never fit on.
    gpusim::GpuSpec spec = gpusim::GpuSpec::A100Sxm80GB();
    kernels::AttnShape shape = model::ModelConfig::Llama3_8B().ShapePerGpu(2);
    Rng rng(20241019);
    RuleScore s;
    for (int i = 0; i < 400; ++i) {
        int chunk = 64 * static_cast<int>(rng.UniformInt(1, 32));
        int kv = 1024 * static_cast<int>(rng.UniformInt(1, 24));
        kv = std::max(kv, chunk);
        int dbs = static_cast<int>(rng.UniformInt(1, 96));
        int ctx = 1024 * static_cast<int>(rng.UniformInt(1, 24));
        Score(kernels::HybridBatch::Make(shape, chunk, kv, dbs, ctx), spec,
              0.0, &s);
    }
    Report("held-out serving", s);
    EXPECT_GE(s.agree, s.four_agree);
    EXPECT_LE(s.regret.Median(), 0.01);
    EXPECT_LE(s.regret.Percentile(99), 0.25);
}

TEST(CtaRuleRegret, ThresholdsReadPerSm)
{
    // An online_pod signature: a 448-token chunk against 13K of context
    // with 7 decodes. On an A100 its 112 small-tile prefill CTAs are
    // about one per SM, the prefill-bound short-chunk case, where the
    // large tile's extra KV splits make 2 CTAs/SM over 1.5x faster. On
    // an 8-SM device the same CTAs are 14 per SM and the CTA shares
    // decide instead (prefill share 112 / (112 + 28) -> 4).
    kernels::AttnShape shape = model::ModelConfig::Llama3_8B().ShapePerGpu(2);
    auto batch = kernels::HybridBatch::Make(shape, 448, 13312, 7, 12288);
    gpusim::GpuSpec a100 = gpusim::GpuSpec::A100Sxm80GB();
    EXPECT_EQ(ChooseCtasPerSm(batch, a100, PodOptions()), 2);
    RuleScore s;
    Score(batch, a100, 0.0, &s);
    EXPECT_EQ(s.agree, 1);
    EXPECT_EQ(ChooseCtasPerSm(batch, gpusim::GpuSpec::TestGpu8Sm(),
                              PodOptions()),
              4);
}

}  // namespace
}  // namespace pod::core
