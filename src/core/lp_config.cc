#include "lp_config.h"

#include <cstdlib>

#include "common/logging.h"

namespace gpulp {

const char *
toString(ChecksumKind kind)
{
    switch (kind) {
      case ChecksumKind::Modular:
        return "modular";
      case ChecksumKind::Parity:
        return "parity";
      case ChecksumKind::ModularParity:
        return "modular+parity";
    }
    GPULP_PANIC("bad ChecksumKind %d", static_cast<int>(kind));
}

const char *
toString(ReductionKind kind)
{
    switch (kind) {
      case ReductionKind::ParallelShuffle:
        return "shfl";
      case ReductionKind::SequentialGlobal:
        return "noshfl";
      case ReductionKind::ParallelFused:
        return "fused";
    }
    GPULP_PANIC("bad ReductionKind %d", static_cast<int>(kind));
}

const char *
toString(TableKind kind)
{
    switch (kind) {
      case TableKind::QuadProbe:
        return "quad";
      case TableKind::Cuckoo:
        return "cuckoo";
      case TableKind::GlobalArray:
        return "array";
      case TableKind::Bucket2Opt:
        return "bucket2opt";
    }
    GPULP_PANIC("bad TableKind %d", static_cast<int>(kind));
}

const char *
toString(LockMode mode)
{
    switch (mode) {
      case LockMode::LockFree:
        return "lockfree";
      case LockMode::LockBased:
        return "lockbased";
      case LockMode::NoAtomic:
        return "noatomic";
    }
    GPULP_PANIC("bad LockMode %d", static_cast<int>(mode));
}

const char *
toString(PersistModel model)
{
    switch (model) {
      case PersistModel::Lazy:
        return "lazy";
      case PersistModel::Eager:
        return "eager";
      case PersistModel::Strict:
        return "strict";
      case PersistModel::EpochBlock:
        return "epoch-block";
      case PersistModel::EpochKernel:
        return "epoch-kernel";
    }
    GPULP_PANIC("bad PersistModel %d", static_cast<int>(model));
}

PersistModel
persistModelFromString(const std::string &name)
{
    if (name == "lazy")
        return PersistModel::Lazy;
    if (name == "eager")
        return PersistModel::Eager;
    if (name == "strict")
        return PersistModel::Strict;
    if (name == "epoch-block")
        return PersistModel::EpochBlock;
    if (name == "epoch-kernel")
        return PersistModel::EpochKernel;
    GPULP_FATAL("unknown persistency model '%s' (want lazy, eager, "
                "strict, epoch-block or epoch-kernel)",
                name.c_str());
}

TableKind
tableKindFromString(const std::string &name)
{
    if (name == "quad")
        return TableKind::QuadProbe;
    if (name == "cuckoo")
        return TableKind::Cuckoo;
    if (name == "array")
        return TableKind::GlobalArray;
    if (name == "bucket2opt")
        return TableKind::Bucket2Opt;
    GPULP_FATAL("unknown table '%s' (want quad, cuckoo, array or "
                "bucket2opt)",
                name.c_str());
}

LockMode
lockModeFromString(const std::string &name)
{
    if (name == "lockfree")
        return LockMode::LockFree;
    if (name == "lockbased")
        return LockMode::LockBased;
    if (name == "noatomic")
        return LockMode::NoAtomic;
    GPULP_FATAL("unknown lock mode '%s' (want lockfree, lockbased or "
                "noatomic)",
                name.c_str());
}

ChecksumKind
checksumKindFromString(const std::string &name)
{
    if (name == "modular")
        return ChecksumKind::Modular;
    if (name == "parity")
        return ChecksumKind::Parity;
    if (name == "both")
        return ChecksumKind::ModularParity;
    GPULP_FATAL("unknown checksum '%s' (want modular, parity or both)",
                name.c_str());
}

LpConfig
applyConfigEnv(LpConfig cfg)
{
    if (const char *table = std::getenv("GPULP_TABLE"))
        cfg.table = tableKindFromString(table);
    if (const char *lock = std::getenv("GPULP_LOCK"))
        cfg.lock = lockModeFromString(lock);
    if (const char *lf = std::getenv("GPULP_LOAD_FACTOR")) {
        char *end = nullptr;
        double v = std::strtod(lf, &end);
        if (end == lf || *end != '\0' || !(v > 0.0) || v > 1.0)
            GPULP_FATAL("GPULP_LOAD_FACTOR must be in (0, 1], got '%s'",
                        lf);
        cfg.load_factor = v;
    }
    if (const char *persist = std::getenv("GPULP_PERSIST"))
        cfg.persist = persistModelFromString(persist);
    return cfg;
}

std::string
configLabel(const LpConfig &cfg)
{
    std::string label = toString(cfg.table);
    label += "+";
    label += toString(cfg.reduction);
    label += "+";
    label += toString(cfg.lock);
    if (cfg.persist != PersistModel::Lazy) {
        label += "+";
        label += toString(cfg.persist);
    }
    return label;
}

} // namespace gpulp
