/**
 * @file
 * Persistency-model matrix: every workload under every model.
 *
 * The paper argues (Sec. I/II) that Lazy Persistency beats Eager
 * Persistency because LP adds no logging, no flushing and no persist
 * barriers to the normal-execution path. This bench widens that
 * two-way comparison into the full model matrix the runtime now
 * supports (docs/PERSISTENCY_MODELS.md):
 *
 *   lazy         checksum store, validate + re-execute on recovery
 *   eager        undo log + clwb + barrier per store, rollback
 *   strict       clwb + persist barrier after every store
 *   epoch-block  clwb per store, one barrier per thread block
 *   epoch-kernel clwb per store, commit flag only (kernel epoch)
 *
 * Rows are the eight Fig. 5 kernels, a MEGA-KV insert batch, and
 * three synthetic store-density scenarios (compute-heavy, balanced,
 * store-heavy: the paper's Sec. I/II eager-versus-lazy framing, read
 * off the lazy and eager columns); columns report execution overhead
 * versus the unprotected baseline, NVM write amplification, and the
 * model's metadata footprint. The shape the paper predicts — and CI
 * gates on via --json — is
 *
 *   lazy  <  epoch-*  <  min(strict, eager)   (store-heavy scenario)
 *
 * because epoch models amortize the barrier over a region while
 * strict pays it per store and eager additionally writes the log.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_env.h"
#include "common/table.h"
#include "core/persist.h"
#include "workloads/megakv.h"
#include "workloads/workload.h"

using namespace gpulp;

namespace {

const PersistModel kModels[] = {
    PersistModel::Lazy, PersistModel::Eager, PersistModel::Strict,
    PersistModel::EpochBlock, PersistModel::EpochKernel,
};

/** How the model gets a corrupt block back after a crash. */
const char *
guaranteeOf(PersistModel m)
{
    switch (m) {
      case PersistModel::Lazy:
        return "validate checksums, re-execute failed blocks";
      case PersistModel::Eager:
        return "roll back undo log, re-execute uncommitted blocks";
      case PersistModel::Strict:
        return "re-execute blocks without a durable commit flag";
      case PersistModel::EpochBlock:
        return "re-execute blocks without a durable commit flag";
      case PersistModel::EpochKernel:
        return "re-execute blocks without a durable commit flag "
               "(commit durability deferred to the kernel epoch)";
    }
    return "?";
}

struct RunOut {
    Cycles cycles = 0;
    uint64_t nvm_writes = 0;
    uint64_t footprint_bytes = 0;
};

struct ModelOut {
    double overhead = 0.0;  //!< fractional slowdown vs baseline
    double write_amp = 0.0; //!< fractional extra NVM line writes
    uint64_t footprint_bytes = 0;
};

struct Row {
    std::string name;
    const char *kind = "workload";
    Cycles baseline_cycles = 0;
    uint64_t baseline_writes = 0;
    std::vector<ModelOut> models; //!< kModels order
};

/** One paper workload under one model (nullptr = baseline). */
RunOut
runWorkload(const std::string &name, double scale,
            const PersistModel *model)
{
    Device dev;
    NvmCache nvm(dev.mem(), NvmParams{});
    dev.attachNvm(&nvm);
    auto w = makeWorkload(name, scale);
    w->setup(dev);

    std::unique_ptr<PersistStrategy> strategy;
    if (model != nullptr) {
        LpConfig cfg = LpConfig::scalable();
        cfg.persist = *model;
        strategy = makePersistStrategy(dev, cfg, w->launchConfig(),
                                       w->persistentStoresPerThread());
    }

    nvm.persistAll();
    nvm.resetStats();
    LaunchResult r = strategy != nullptr
                         ? runWithLp(dev, *w, *strategy)
                         : runBaseline(dev, *w);
    nvm.persistAll(); // run-to-completion write accounting
    std::string why;
    GPULP_ASSERT(w->verify(&why), "'%s' wrong under %s: %s", name.c_str(),
                 model ? toString(*model) : "baseline", why.c_str());
    return RunOut{r.cycles, nvm.stats().nvmLineWrites(),
                  strategy ? strategy->footprintBytes() : 0};
}

/** One MEGA-KV insert batch under one model (nullptr = baseline). */
RunOut
runMegaKvInsert(double scale, const PersistModel *model)
{
    Device dev;
    NvmCache nvm(dev.mem(), NvmParams{});
    dev.attachNvm(&nvm);
    const uint32_t batch = std::max<uint32_t>(
        MegaKv::kThreads,
        static_cast<uint32_t>(16384 * scale) / MegaKv::kThreads *
            MegaKv::kThreads);
    MegaKv kv(dev, /*buckets=*/std::max(64u, batch / 8), batch);

    std::vector<std::pair<uint32_t, uint32_t>> ops;
    ops.reserve(batch);
    for (uint32_t i = 0; i < batch; ++i)
        ops.emplace_back(i * 2654435761u | 1u, i + 1);
    kv.stageInserts(ops);

    const LaunchConfig launch = kv.launchConfig();
    std::unique_ptr<PersistStrategy> strategy;
    LpContext ctx;
    const LpContext *lp = nullptr;
    if (model != nullptr) {
        LpConfig cfg = LpConfig::scalable();
        cfg.persist = *model;
        strategy = makePersistStrategy(dev, cfg, launch,
                                       MegaKv::kMaxPersistStoresPerThread);
        ctx = strategy->context();
        lp = &ctx;
    }

    nvm.persistAll();
    nvm.resetStats();
    LaunchResult r =
        dev.launch(launch, [&](ThreadCtx &t) { kv.insertKernel(t, lp); });
    nvm.persistAll();
    return RunOut{r.cycles, nvm.stats().nvmLineWrites(),
                  strategy ? strategy->footprintBytes() : 0};
}

/** A synthetic store-density scenario: stores per thread and the
 *  compute between them set how much a per-store flush, fence or log
 *  entry costs relative to the work. */
struct Scenario {
    const char *name;
    LaunchConfig cfg;
    uint32_t stores_per_thread;
    uint32_t compute_per_store;
};

RunOut
runScenario(const Scenario &s, const PersistModel *model)
{
    Device dev;
    NvmCache nvm(dev.mem(), NvmParams{});
    dev.attachNvm(&nvm);

    const uint64_t per_thread = s.stores_per_thread;
    const uint64_t n =
        s.cfg.numBlocks() * s.cfg.threadsPerBlock() * per_thread;
    auto out = ArrayRef<uint32_t>::allocate(dev.mem(), n);

    std::unique_ptr<PersistStrategy> strategy;
    LpContext ctx;
    const LpContext *lp = nullptr;
    if (model != nullptr) {
        LpConfig cfg = LpConfig::scalable();
        cfg.persist = *model;
        strategy = makePersistStrategy(dev, cfg, s.cfg, per_thread);
        ctx = strategy->context();
        lp = &ctx;
    }

    nvm.persistAll();
    nvm.resetStats();
    LaunchResult r = dev.launch(s.cfg, [&](ThreadCtx &t) {
        PersistAccum acc = makePersistAccum(lp);
        uint64_t base = t.globalThreadIdx() * per_thread;
        for (uint32_t i = 0; i < per_thread; ++i) {
            t.compute(s.compute_per_store);
            uint32_t v = static_cast<uint32_t>(base + i) * 2654435761u;
            persistStoreU32(t, lp, acc, out, base + i, v);
        }
        persistRegionEnd(t, lp, acc);
    });
    nvm.persistAll();
    return RunOut{r.cycles, nvm.stats().nvmLineWrites(),
                  strategy ? strategy->footprintBytes() : 0};
}

Row
buildRow(const std::string &name, const char *kind,
         const std::function<RunOut(const PersistModel *)> &run)
{
    Row row;
    row.name = name;
    row.kind = kind;
    RunOut base = run(nullptr);
    row.baseline_cycles = base.cycles;
    row.baseline_writes = base.nvm_writes;
    for (PersistModel m : kModels) {
        RunOut out = run(&m);
        ModelOut mo;
        mo.overhead = overheadOf(base.cycles, out.cycles);
        mo.write_amp = (static_cast<double>(out.nvm_writes) -
                        static_cast<double>(base.nvm_writes)) /
                       static_cast<double>(base.nvm_writes);
        mo.footprint_bytes = out.footprint_bytes;
        row.models.push_back(mo);
    }
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli = benchCli("matrix_persistency", argc, argv);
    std::printf("=== Persistency-model matrix: overhead x write "
                "amplification ===\n");
    std::printf("(columns: %s", toString(kModels[0]));
    for (size_t i = 1; i < std::size(kModels); ++i)
        std::printf(", %s", toString(kModels[i]));
    std::printf(")\n\n");

    std::vector<Row> rows;
    for (const std::string &name : workloadNames()) {
        rows.push_back(buildRow(name, "workload",
                                [&](const PersistModel *m) {
                                    return runWorkload(name, cli.scale, m);
                                }));
    }
    rows.push_back(buildRow("megakv-insert", "workload",
                            [&](const PersistModel *m) {
                                return runMegaKvInsert(cli.scale, m);
                            }));

    const Scenario scenarios[] = {
        {"synthetic-compute", LaunchConfig(Dim3(256), Dim3(64)), 1, 6000},
        {"synthetic-balanced", LaunchConfig(Dim3(256), Dim3(64)), 8, 900},
        {"synthetic-store-heavy", LaunchConfig(Dim3(128), Dim3(64)), 32,
         160},
    };
    for (const Scenario &s : scenarios) {
        rows.push_back(buildRow(s.name, "synthetic",
                                [&](const PersistModel *m) {
                                    return runScenario(s, m);
                                }));
    }

    TextTable overhead({"Row", "lazy", "eager", "strict", "epoch-blk",
                        "epoch-krn"});
    TextTable writes({"Row", "lazy", "eager", "strict", "epoch-blk",
                      "epoch-krn"});
    for (const Row &row : rows) {
        std::vector<std::string> ov{row.name}, wa{row.name};
        for (const ModelOut &mo : row.models) {
            ov.push_back(TextTable::pct(mo.overhead));
            wa.push_back(TextTable::pct(mo.write_amp));
        }
        overhead.addRow(ov);
        writes.addRow(wa);
    }
    std::printf("Execution overhead vs baseline:\n");
    overhead.print();
    std::printf("\nNVM write amplification vs baseline:\n");
    writes.print();

    std::printf("\nRecovery guarantees:\n");
    for (size_t i = 0; i < std::size(kModels); ++i)
        std::printf("  %-12s %s\n", toString(kModels[i]),
                    guaranteeOf(kModels[i]));

    // The CI shape gate: on the store-heavy scenario the barrier-free
    // lazy model must beat the epoch models, which amortize their
    // barrier per region and must beat per-store strict and
    // log-writing eager.
    const Row &heavy = rows.back();
    const double lazy_ov = heavy.models[0].overhead;
    const double eager_ov = heavy.models[1].overhead;
    const double strict_ov = heavy.models[2].overhead;
    const double epoch_ov =
        std::max(heavy.models[3].overhead, heavy.models[4].overhead);
    const bool shape_ok = lazy_ov < epoch_ov &&
                          epoch_ov < std::min(strict_ov, eager_ov);
    std::printf("\nShape checks (store-heavy):\n");
    std::printf("  lazy < epoch-* < min(strict, eager): %s "
                "(%.1f%% < %.1f%% < %.1f%%)\n",
                shape_ok ? "yes" : "NO", lazy_ov * 100, epoch_ov * 100,
                std::min(strict_ov, eager_ov) * 100);

    benchFlushTrace();
    if (cli.json_path != nullptr) {
        std::FILE *f = std::fopen(cli.json_path, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         cli.json_path);
            return 1;
        }
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"bench\": \"matrix_persistency\",\n");
        std::fprintf(f, "  \"scale\": %.4f,\n", cli.scale);
        std::fprintf(f, "  \"wall_seconds\": %.3f,\n", cli.wallSeconds());
        std::fprintf(f, "  \"shape_ok\": %s,\n",
                     shape_ok ? "true" : "false");
        std::fprintf(f, "  \"models\": [");
        for (size_t i = 0; i < std::size(kModels); ++i) {
            std::fprintf(f, "%s{\"model\": \"%s\", \"guarantee\": \"%s\"}",
                         i ? ", " : "", toString(kModels[i]),
                         guaranteeOf(kModels[i]));
        }
        std::fprintf(f, "],\n");
        std::fprintf(f, "  \"rows\": [\n");
        for (size_t r = 0; r < rows.size(); ++r) {
            const Row &row = rows[r];
            std::fprintf(f, "    {\"row\": \"%s\", \"kind\": \"%s\", ",
                         row.name.c_str(), row.kind);
            std::fprintf(
                f, "\"baseline_cycles\": %llu, \"baseline_writes\": %llu,",
                static_cast<unsigned long long>(row.baseline_cycles),
                static_cast<unsigned long long>(row.baseline_writes));
            std::fprintf(f, " \"cells\": [");
            for (size_t i = 0; i < row.models.size(); ++i) {
                const ModelOut &mo = row.models[i];
                std::fprintf(f,
                             "%s{\"model\": \"%s\", \"overhead\": %.4f, "
                             "\"write_amp\": %.4f, "
                             "\"footprint_bytes\": %llu}",
                             i ? ", " : "", toString(kModels[i]),
                             mo.overhead, mo.write_amp,
                             static_cast<unsigned long long>(
                                 mo.footprint_bytes));
            }
            std::fprintf(f, "]}%s\n", r + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  ");
        obs::writeCountersJson(obs::snapshotCounters(), f, "  ");
        std::fprintf(f, "\n}\n");
        std::fclose(f);
        std::printf("\nwrote %s\n", cli.json_path);
    }
    return shape_ok ? 0 : 1;
}
