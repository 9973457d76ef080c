/**
 * @file
 * Crash-recoverable GPU key-value store (the paper's MEGA-KV study,
 * Sec. VII-4) — the motivating class of application: an in-memory
 * database whose contents must survive power failure.
 *
 * A batch of inserts runs LP-protected; a crash strikes mid-batch;
 * validation finds the blocks whose table mutations did not fully
 * persist and re-executes exactly those; every key is then durable and
 * searchable.
 *
 * Run: ./kvstore
 */

#include <cstdio>
#include <vector>

#include "workloads/megakv.h"

using namespace gpulp;

int
main()
{
    Device dev;
    NvmParams nvm_params;
    nvm_params.cache_bytes = 128 * 1024;
    NvmCache nvm(dev.mem(), nvm_params);
    dev.attachNvm(&nvm);

    const uint32_t batch = 4096;
    MegaKv kv(dev, /*buckets=*/2048, batch);

    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    pairs.reserve(batch);
    for (uint32_t i = 0; i < batch; ++i)
        pairs.emplace_back(i * 2654435761u + 17, 90000 + i);
    kv.stageInserts(pairs);

    LpRuntime lp(dev, LpConfig::scalable(), kv.launchConfig());
    LpContext ctx = lp.context();

    nvm.persistAll();
    nvm.crashAfterStores(3000);

    LaunchResult run = dev.launch(kv.launchConfig(), [&](ThreadCtx &t) {
        kv.insertKernel(t, &ctx);
    });
    std::printf("insert batch of %u ops: %s after %llu of %llu blocks\n",
                batch, run.crashed ? "CRASHED" : "completed",
                static_cast<unsigned long long>(run.blocks_completed),
                static_cast<unsigned long long>(
                    kv.launchConfig().numBlocks()));

    // Power failure -> only evicted lines survived.
    nvm.crash();
    uint32_t survivors = 0;
    for (const auto &[key, value] : pairs) {
        uint32_t got = 0;
        if (kv.hostLookup(key, &got) && got == value)
            ++survivors;
    }
    std::printf("after crash, %u / %u keys survived in NVM\n", survivors,
                batch);

    RecoveryReport report = persistRecover(
        dev, kv.launchConfig(), lp,
        [&](ThreadCtx &t) { kv.insertKernel(t, &ctx); }, // re-insert
        [&](ThreadCtx &t, RecoverySet &failed) {
            kv.validateInserts(t, ctx, failed);
        });
    std::printf("recovery re-executed %llu / %llu blocks\n",
                static_cast<unsigned long long>(report.blocks_recovered),
                static_cast<unsigned long long>(report.blocks_checked));

    // Every key must now be present with its exact value — durably.
    nvm.crash(); // drop volatile state again: recovery persisted it
    uint32_t wrong = 0;
    for (const auto &[key, value] : pairs) {
        uint32_t got = 0;
        if (!kv.hostLookup(key, &got) || got != value)
            ++wrong;
    }
    std::printf("verification: %u wrong keys -> %s\n", wrong,
                wrong == 0 ? "PASS" : "FAIL");
    return wrong == 0 ? 0 : 1;
}
