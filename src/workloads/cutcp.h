/**
 * @file
 * CUTCP — distance-cutoff Coulombic potential (Parboil).
 *
 * Each thread evaluates the electrostatic potential at one lattice
 * point as the sum of charge/distance contributions from all atoms
 * within a cutoff radius. The paper launches 128 compute-heavy blocks;
 * we keep the grid and charge the model for the full atom count via
 * kChargePerAtom. Instruction-throughput bound.
 */

#ifndef GPULP_WORKLOADS_CUTCP_H
#define GPULP_WORKLOADS_CUTCP_H

#include <vector>

#include "workloads/workload.h"

namespace gpulp {

/** Cutoff Coulombic potential on a 1-D lattice slice. */
class CutcpWorkload : public Workload
{
  public:
    static constexpr uint32_t kThreads = 128;
    static constexpr uint32_t kAtoms = 32;
    static constexpr float kCutoff2 = 16.0f; //!< squared cutoff radius
    /** Charge per atom visit, standing in for the full atom set. */
    static constexpr uint32_t kChargePerAtom = 700;
    /** Per-block duration jitter span (~15% of block work). */
    static constexpr uint32_t kJitterSpan = 3000;

    explicit CutcpWorkload(double scale = 1.0);

    const char *name() const override { return "cutcp"; }
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
    double quadLoadFactor() const override { return 0.85; }
    double cuckooLoadFactor() const override { return 0.48; }

  private:
    uint32_t blocks_;
    uint64_t points_;
    ArrayRef<float> atom_x_; //!< atom coordinates
    ArrayRef<float> atom_q_; //!< atom charges
    ArrayRef<float> pot_;    //!< potential at each lattice point
    std::vector<float> reference_;
};

} // namespace gpulp

#endif // GPULP_WORKLOADS_CUTCP_H
