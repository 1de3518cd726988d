/**
 * @file
 * Reproduces paper Figure 7: the S3.3 case study of concurrent
 * execution methods on a compute-bound kernel (scalar multiplies) and
 * a memory-bound kernel (three-array adds), sweeping the number of
 * compute iterations from memory-heavy to compute-heavy.
 */
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "kernels/micro.h"

using namespace pod;
using namespace pod::kernels;
using namespace pod::bench;

int
main()
{
    Header("Figure 7", "fine-grained fusion vs serial computation");
    gpusim::GpuSpec gpu = bench::A100();

    const FusionStrategy strategies[] = {
        FusionStrategy::kSerial,     FusionStrategy::kStreams,
        FusionStrategy::kCtaParallel, FusionStrategy::kIntraThread,
        FusionStrategy::kSmAwareCta, FusionStrategy::kOracle,
    };

    std::vector<std::string> headers = {"compute iters"};
    for (auto s : strategies) headers.push_back(FusionStrategyName(s));
    Table t(headers);

    for (int iters = 20; iters <= 200; iters += 20) {
        std::vector<std::string> row = {Table::Int(iters)};
        for (auto s : strategies) {
            double time = RunMicroStrategy(s, iters, gpu);
            row.push_back(Table::Num(time * 1e3, 3) + " ms");
        }
        t.AddRow(row);
    }
    t.Print(std::cout);
    std::printf("\nExpected shape (paper): streams/CTA marginal over "
                "serial; intra-thread in between; SM-aware CTA close to "
                "optimal across the sweep.\n");
    return 0;
}
