/**
 * @file
 * MRI-GRIDDING — Cartesian gridding of non-uniform MRI samples
 * (Parboil).
 *
 * Parboil's gridding kernel bins k-space samples and accumulates a
 * windowed contribution onto nearby Cartesian grid cells. We use the
 * gather formulation (each block owns a run of grid cells and sums the
 * contributions of the samples binned near it), which makes the block
 * idempotent, the property LP recovery needs. The paper's launch has
 * 65536 thread blocks of tiny duration — this combination (huge block
 * count, small baseline) is exactly what makes MRI-GRIDDING the worst
 * case for the quadratic-probing table (218.6% overhead) in Fig. 5.
 */

#ifndef GPULP_WORKLOADS_MRI_GRIDDING_H
#define GPULP_WORKLOADS_MRI_GRIDDING_H

#include <vector>

#include "workloads/workload.h"

namespace gpulp {

/** Gather-style gridding: cells accumulate nearby binned samples. */
class MriGriddingWorkload : public Workload
{
  public:
    static constexpr uint32_t kThreads = 32;
    /** Output grid cells per block (2 per thread). */
    static constexpr uint32_t kCellsPerBlock = 64;
    static constexpr uint32_t kSamplesPerBin = 4;
    /** Charge per sample visit, standing in for the full sample set. */
    static constexpr uint32_t kChargePerSample = 70;
    /** Per-block duration jitter span (~15% of block work). */
    static constexpr uint32_t kJitterSpan = 100;

    explicit MriGriddingWorkload(double scale = 1.0);

    const char *name() const override { return "mri-gridding"; }
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
    uint64_t
    persistentStoresPerThread() const override
    {
        return kCellsPerBlock / kThreads;
    }
    double quadLoadFactor() const override { return 0.87; }
    double cuckooLoadFactor() const override { return 0.35; }

  private:
    /** Kaiser-Bessel-flavoured weight of a sample at offset d. */
    static float weightOf(float d);

    uint32_t blocks_;
    ArrayRef<float> sample_val_; //!< blocks x kSamplesPerBin values
    ArrayRef<float> sample_pos_; //!< blocks x kSamplesPerBin offsets
    ArrayRef<float> grid_;       //!< blocks x kCellsPerBlock cells
    std::vector<float> reference_;
};

} // namespace gpulp

#endif // GPULP_WORKLOADS_MRI_GRIDDING_H
