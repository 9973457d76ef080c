#include "workload.h"

#include "core/checksum_store.h" // mixHash

#include "workloads/cutcp.h"
#include "workloads/histo.h"
#include "workloads/mri_gridding.h"
#include "workloads/mri_q.h"
#include "workloads/sad.h"
#include "workloads/spmv.h"
#include "workloads/tmm.h"
#include "workloads/tpacf.h"

namespace gpulp {

void
chargeBlockJitter(ThreadCtx &t, uint32_t span)
{
    if (span == 0)
        return;
    uint32_t jitter =
        mixHash(static_cast<uint32_t>(t.blockRank()), 0x6a69u) % span;
    t.stall(jitter);
}

LaunchResult
runBaseline(Device &dev, Workload &w)
{
    return dev.launch(w.launchConfig(),
                      [&](ThreadCtx &t) { w.kernel(t, nullptr); });
}

LaunchResult
runWithLp(Device &dev, Workload &w, PersistStrategy &strategy)
{
    LpContext ctx = strategy.context();
    return dev.launch(w.launchConfig(),
                      [&](ThreadCtx &t) { w.kernel(t, &ctx); });
}

double
overheadOf(Cycles baseline_cycles, Cycles lp_cycles)
{
    GPULP_ASSERT(baseline_cycles > 0, "baseline took zero cycles");
    return (static_cast<double>(lp_cycles) -
            static_cast<double>(baseline_cycles)) /
           static_cast<double>(baseline_cycles);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, double scale)
{
    if (name == "tmm")
        return std::make_unique<TmmWorkload>(scale);
    if (name == "tpacf")
        return std::make_unique<TpacfWorkload>(scale);
    if (name == "mri-gridding")
        return std::make_unique<MriGriddingWorkload>(scale);
    if (name == "spmv")
        return std::make_unique<SpmvWorkload>(scale);
    if (name == "sad")
        return std::make_unique<SadWorkload>(scale);
    if (name == "histo")
        return std::make_unique<HistoWorkload>(scale);
    if (name == "cutcp")
        return std::make_unique<CutcpWorkload>(scale);
    if (name == "mri-q")
        return std::make_unique<MriQWorkload>(scale);
    GPULP_FATAL("unknown workload '%s'", name.c_str());
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "tmm",  "tpacf", "mri-gridding", "spmv",
        "sad",  "histo", "cutcp",        "mri-q",
    };
    return names;
}

} // namespace gpulp
