/**
 * @file
 * TPACF — two-point angular correlation function (Parboil).
 *
 * Structure follows the Parboil kernel: each thread block correlates a
 * chunk of observed sky points against the full comparison set,
 * privatizing a histogram of angular-separation bins in shared memory
 * and writing its partial histogram to global memory at the end (which
 * keeps the block idempotent — the LP requirement). The paper runs 512
 * long blocks; we keep 512 blocks and charge the timing model for the
 * full "biggest input" pair count via kChargePerPair.
 *
 * Instruction-throughput bound; the long blocks are why TPACF shows
 * the smallest LP overheads in the paper (1.0-1.5%).
 */

#ifndef GPULP_WORKLOADS_TPACF_H
#define GPULP_WORKLOADS_TPACF_H

#include <vector>

#include "workloads/workload.h"

namespace gpulp {

/** Angular-correlation histogram over unit-sphere points. */
class TpacfWorkload : public Workload
{
  public:
    static constexpr uint32_t kThreads = 64;
    static constexpr uint32_t kBins = 64;
    /** Comparison points correlated against each block point. */
    static constexpr uint32_t kCompare = 256;
    /** Points handled per block. */
    static constexpr uint32_t kPointsPerBlock = 16;
    /** Charge per point pair, standing in for the full input. */
    static constexpr uint32_t kChargePerPair = 1000;
    /** Per-block duration jitter span (~15% of block work). */
    static constexpr uint32_t kJitterSpan = 10000;

    explicit TpacfWorkload(double scale = 1.0);

    const char *name() const override { return "tpacf"; }
    const char *bottleneck() const override { return "Inst throughput"; }
    LaunchConfig launchConfig() const override;
    void setup(Device &dev) override;
    void kernel(ThreadCtx &t, const LpContext *lp) override;
    void validation(ThreadCtx &t, const LpContext &lp,
                    RecoverySet &failed) override;
    bool verify(std::string *why = nullptr) const override;
    uint64_t outputBytes() const override;
    std::vector<OutputSpan> outputSpans() const override;
    std::vector<OutputSpan> blockOutputSpans(uint64_t rank) const override;
    double quadLoadFactor() const override { return 0.67; }
    double cuckooLoadFactor() const override { return 0.44; }

  private:
    /** Bin index for a pair dot product in [-1, 1]. */
    static uint32_t binOf(float dot);

    uint32_t blocks_;
    ArrayRef<float> data_;    //!< blocks*kPointsPerBlock x 3 coords
    ArrayRef<float> random_;  //!< kCompare x 3 coords
    ArrayRef<uint32_t> hist_; //!< blocks x kBins partial histograms
    std::vector<uint32_t> reference_;
};

} // namespace gpulp

#endif // GPULP_WORKLOADS_TPACF_H
