/**
 * @file
 * HISTO — saturating histogram (Parboil).
 *
 * Each of the paper's 42 thread blocks processes a contiguous chunk of
 * a large input stream, privatizes a 256-bin histogram in shared
 * memory, saturates bins at 255 and publishes its partial histogram to
 * global memory (per-block partials keep blocks idempotent for LP; a
 * host-side merge produces the final histogram, as Parboil's multi-pass
 * structure does). Bandwidth bound: runtime rides the DRAM roofline
 * from streaming the input.
 */

#ifndef GPULP_WORKLOADS_HISTO_H
#define GPULP_WORKLOADS_HISTO_H

#include <vector>

#include "workloads/workload.h"

namespace gpulp {

/** Privatized saturating histogram over a data stream. */
class HistoWorkload : public Workload
{
  public:
    static constexpr uint32_t kThreads = 256;
    static constexpr uint32_t kBins = 256;
    /** Saturation ceiling per bin (Parboil's uint8 output). */
    static constexpr uint32_t kSaturation = 255;
    /** Input elements per thread. */
    static constexpr uint32_t kItemsPerThread = 48;
    /** Charge per item, standing in for the full input stream. */
    static constexpr uint32_t kChargePerItem = 400;
    /** Per-block duration jitter span (~15% of block work). */
    static constexpr uint32_t kJitterSpan = 2400;

    explicit HistoWorkload(double scale = 1.0);

    const char *name() const override { return "histo"; }
    const char *bottleneck() const override { return "Bandwidth"; }
    LaunchConfig launchConfig() const override;
    void setup(Device &dev) override;
    void kernel(ThreadCtx &t, const LpContext *lp) override;
    void validation(ThreadCtx &t, const LpContext &lp,
                    RecoverySet &failed) override;
    bool verify(std::string *why = nullptr) const override;
    uint64_t outputBytes() const override;
    std::vector<OutputSpan> outputSpans() const override;
    std::vector<OutputSpan> blockOutputSpans(uint64_t rank) const override;
    double quadLoadFactor() const override { return 0.50; }
    double cuckooLoadFactor() const override { return 0.30; }

  private:
    uint32_t blocks_;
    uint64_t items_;
    ArrayRef<uint32_t> input_;
    ArrayRef<uint32_t> partial_; //!< blocks x kBins saturated partials
    std::vector<uint32_t> reference_;
};

} // namespace gpulp

#endif // GPULP_WORKLOADS_HISTO_H
