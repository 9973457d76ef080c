/**
 * @file
 * Configuration of the Lazy Persistency design space explored by the
 * paper (Sec. IV): checksum type, reduction method, checksum-table
 * organization and locking discipline.
 */

#ifndef GPULP_CORE_LP_CONFIG_H
#define GPULP_CORE_LP_CONFIG_H

#include <cstdint>
#include <string>

namespace gpulp {

/**
 * Which checksum(s) protect an LP region.
 *
 * The paper selects the simultaneous use of modular + parity
 * (false-negative rate below 1e-12); Adler-32 is supported host-side
 * for comparison but is order-dependent and therefore cannot be
 * parallel-reduced (Sec. IV-B).
 */
enum class ChecksumKind : uint8_t {
    Modular,       //!< 32-bit modular sum of ordered-int values
    Parity,        //!< 32-bit XOR of ordered-int values
    ModularParity, //!< both simultaneously (the paper's recommendation)
};

/** How per-thread checksums combine into the block checksum. */
enum class ReductionKind : uint8_t {
    ParallelShuffle,  //!< warp shfl_down tree + shared memory (Listing 3/4)
    SequentialGlobal, //!< values staged in global memory, one thread reduces
    ParallelFused,    //!< extension: one 64-bit shuffle carries both
                      //!< checksums (the hardware support Sec. VII-2
                      //!< asks architects for)
};

/**
 * Checksum-table organization (Sec. IV-C and Sec. V, plus the v2
 * engine's bucketized backend — see docs/CHECKSUM_TABLES.md).
 */
enum class TableKind : uint8_t {
    QuadProbe,   //!< open addressing with quadratic probing
    Cuckoo,      //!< two tables / two hash functions, eviction chains
    GlobalArray, //!< hash-table-less checksum global array (Sec. V)
    /** Bucketized two-choice, optimistic per-bucket versions. Stays 4:
     *  the fault campaign hashes the enum value into every cell's
     *  crash points (mixSeed), so renumbering would move them. */
    Bucket2Opt = 4,
};

/** Synchronization discipline for table insertion (Sec. IV-C.1/D.3-4). */
enum class LockMode : uint8_t {
    LockFree,  //!< atomicCAS / atomicExch insertion
    LockBased, //!< one table-wide spin lock around the insert
    NoAtomic,  //!< plain load/compare/store sequences (Sec. IV-D.3)
};

/**
 * Which persistency model protects a kernel's persistent stores.
 *
 * Lazy is the paper's contribution; Eager is its undo-log baseline
 * (Sec. I/II). Strict and the two Epoch variants come from "Exploring
 * Memory Persistency Models for GPUs" (same senior author): strict
 * persistency orders every persistent store with a flush + fence,
 * epoch persistency batches flushes and fences only at epoch
 * boundaries (here: block- or kernel-granularity epochs). See
 * docs/PERSISTENCY_MODELS.md for the normative semantics and the
 * recovery guarantee each model earns.
 */
enum class PersistModel : uint8_t {
    Lazy,        //!< LP checksums; nothing flushed (the paper)
    Eager,       //!< undo log + flush/fence per store + commit flag
    Strict,      //!< flush + persist barrier after every store
    EpochBlock,  //!< flushes per store, barriers at block-region end
    EpochKernel, //!< flushes per store, no barriers until kernel end
};

/** A point in the LP design space. */
struct LpConfig {
    ChecksumKind checksum = ChecksumKind::ModularParity;
    ReductionKind reduction = ReductionKind::ParallelShuffle;
    TableKind table = TableKind::GlobalArray;
    LockMode lock = LockMode::LockFree;
    PersistModel persist = PersistModel::Lazy;

    /**
     * Target load factor for hashed tables. The paper keeps quadratic
     * probing at or below ~70% and cuckoo below 50%; the global array
     * always runs at 100% (one slot per thread block).
     */
    double load_factor = 0.0; // 0 => per-table default

    bool operator==(const LpConfig &) const = default;

    /** The paper's final recommended configuration (Sec. VII-1). */
    static LpConfig
    scalable()
    {
        return LpConfig{};
    }

    /** The naive CPU-style port: hashed table + shuffle reduction. */
    static LpConfig
    naive(TableKind table_kind)
    {
        LpConfig cfg;
        cfg.table = table_kind;
        return cfg;
    }
};

/** Human-readable name for a checksum kind. */
const char *toString(ChecksumKind kind);

/** Human-readable name for a reduction kind. */
const char *toString(ReductionKind kind);

/** Human-readable name for a table kind. */
const char *toString(TableKind kind);

/** Human-readable name for a lock mode. */
const char *toString(LockMode mode);

/** Human-readable name for a persistency model. */
const char *toString(PersistModel model);

/** Parse "quad" / "cuckoo" / "array" / "bucket2opt". */
TableKind tableKindFromString(const std::string &name);

/** Parse "lockfree" / "lockbased" / "noatomic". */
LockMode lockModeFromString(const std::string &name);

/** Parse "modular" / "parity" / "both". */
ChecksumKind checksumKindFromString(const std::string &name);

/** Parse "lazy" / "eager" / "strict" / "epoch-block" / "epoch-kernel". */
PersistModel persistModelFromString(const std::string &name);

/**
 * Overlay the GPULP_TABLE, GPULP_LOCK, GPULP_LOAD_FACTOR and
 * GPULP_PERSIST environment
 * variables (when set) on @p cfg. Tools and examples that accept an LP
 * configuration call this so any backend can be selected without a
 * rebuild; comparative benches do NOT, so their side-by-side tables
 * cannot be silently skewed by a stray variable.
 */
LpConfig applyConfigEnv(LpConfig cfg);

/** Compact label such as "quad+shfl+lockfree" for reports. */
std::string configLabel(const LpConfig &cfg);

} // namespace gpulp

#endif // GPULP_CORE_LP_CONFIG_H
