#include "crashharness.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <type_traits>

#include "common/json.h"
#include "common/logging.h"
#include "common/prng.h"

namespace gpulp {

namespace {

// Child exit codes, chosen away from shell/signal conventions so the
// parent can tell a misconfigured harness from a genuine child death.
constexpr int kExitVictimRanToEnd = 64; //!< crash latch never tripped
constexpr int kExitChildFailed = 65;    //!< setup or I/O error in a child

/** Per-(workload, device) seed so sweeps draw independent points. */
uint64_t
harnessSeed(uint64_t seed, const std::string &workload, bool file_device)
{
    uint64_t h = seed ^ 0x9e3779b97f4a7c15ull;
    for (char c : workload)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    if (file_device)
        h ^= 1ull << 48;
    return h;
}

/** The lazy cell every process of one harness run builds. */
TrialCell
trialCell(const CrashHarnessOptions &opts)
{
    TrialCell cell;
    cell.workload = opts.workload;
    cell.scale = opts.scale;
    cell.num_workers = opts.num_workers;
    cell.nvm_cache_bytes = opts.nvm_cache_bytes;
    cell.table = opts.table;
    cell.checksum = opts.checksum;
    return cell;
}

/** The victim's (@p truncate) or the recovery process's log, or
 *  nullptr on the in-memory device; a child exits if it cannot open. */
std::unique_ptr<PersistLog>
openLog(const CrashHarnessOptions &opts, bool truncate)
{
    if (!opts.file_device)
        return nullptr;
    PersistLogParams lp;
    lp.batch_bytes = opts.log_batch_bytes;
    std::unique_ptr<PersistLog> log =
        PersistLog::open(opts.log_path, lp, truncate);
    if (!log)
        std::_Exit(kExitChildFailed);
    return log;
}

bool
readWord(std::FILE *f, uint64_t *v)
{
    return std::fread(v, sizeof(*v), 1, f) == 1;
}

/** Call @p fn(key, field) for every field the recovery child reports,
 *  in record order: the shared trial fields, then the log forensics. */
template <typename Trial, typename Fn>
void
forEachRecordField(Trial &t, Fn &&fn)
{
    forEachTrialField(t, fn);
    fn("log_bytes_at_death", t.log_bytes_at_death);
    fn("entries_replayed", t.entries_replayed);
    fn("torn_tail_bytes", t.torn_tail_bytes);
    fn("crc_rejected", t.crc_rejected);
}

/**
 * The process that dies. Builds the rig against a fresh log — the
 * rig's pristine persistAll() seeds it with the whole pre-kernel image,
 * so recovery can rebuild even regions the kernel never dirtied — and
 * runs the kernel with the crash countdown armed and the latch action
 * pointed at raise(SIGKILL): the (point+1)-th observed store kills the
 * process mid-instruction. Anything still in the persist log's batch
 * buffer is lost with it — that unflushed window is exactly the loss a
 * real device write queue would suffer.
 */
[[noreturn]] void
runVictimProcess(const CrashHarnessOptions &opts, uint64_t point)
{
    CrashTrial rig(trialCell(opts), openLog(opts, /*truncate=*/true));
    rig.nvm().resetStats();
    rig.nvm().setCrashLatchAction([] { ::raise(SIGKILL); });
    rig.nvm().crashAfterStores(point);
    rig.runKernel();

    // pickCrashPoints keeps every point at least two stores short of
    // the total, so reaching here means the countdown never ran out —
    // a harness bug, not a workload outcome.
    std::_Exit(kExitVictimRanToEnd);
}

/**
 * The fresh process that comes back from the dead. Builds the rig with
 * no log, so its durable image is the re-initialized set-up state: all
 * the in-memory device has left after the kill. On the file device it
 * then replays the log the victim left behind (torn tail and all) over
 * that image. The engine's trial tail judges the result against the
 * golden bytes.
 */
[[noreturn]] void
runRecoveryProcess(const CrashHarnessOptions &opts, uint64_t point,
                   const std::string &golden_path,
                   const std::string &result_path)
{
    CrashTrialResult trial;
    trial.crash_point = point;

    CrashTrial rig(trialCell(opts));
    std::unique_ptr<PersistLog> log = openLog(opts, /*truncate=*/false);
    if (log) {
        const PersistLogStats &ls = log->stats();
        trial.log_bytes_at_death = log->fileBytes() + ls.torn_tail_bytes;
        trial.entries_replayed = ls.entries_replayed;
        trial.torn_tail_bytes = ls.torn_tail_bytes;
        trial.crc_rejected = ls.crc_rejected;
        rig.nvm().attachPersistLog(log.get());
        rig.nvm().restoreFromLog();
    }

    std::vector<std::vector<uint8_t>> golden;
    if (!readGoldenFile(golden_path, rig.blockBytes(), &golden))
        std::_Exit(kExitChildFailed);
    rig.adoptGolden(std::move(golden));
    rig.finish(trial);

    if (!writeTrialFile(result_path, trial))
        std::_Exit(kExitChildFailed);
    std::_Exit(0);
}

void
removeIfExists(const std::string &path)
{
    if (!path.empty())
        ::remove(path.c_str());
}

} // namespace

bool
CrashTrialResult::passed() const
{
    return killed_by_sigkill && TrialResult::passed();
}

bool
CrashHarnessResult::passed() const
{
    return !trials.empty() &&
           std::all_of(trials.begin(), trials.end(),
                       [](const CrashTrialResult &t) { return t.passed(); });
}

// Golden image hand-off -----------------------------------------------------
//
// The launching process computes the golden run once and serializes the
// per-block output bytes: the block count, then each block's size and
// bytes. A byte-identical recovered output therefore also certifies that
// the simulator is deterministic *across* processes, not just within one.

bool
writeGoldenFile(const std::string &path,
                const std::vector<std::vector<uint8_t>> &blocks)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    uint64_t n = blocks.size();
    bool ok = std::fwrite(&n, sizeof(n), 1, f) == 1;
    for (uint64_t b = 0; ok && b < n; ++b) {
        uint64_t sz = blocks[b].size();
        ok = std::fwrite(&sz, sizeof(sz), 1, f) == 1 &&
             (sz == 0 || std::fwrite(blocks[b].data(), 1, sz, f) == sz);
    }
    return std::fclose(f) == 0 && ok;
}

bool
readGoldenFile(const std::string &path,
               const std::vector<size_t> &block_bytes,
               std::vector<std::vector<uint8_t>> *blocks)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::vector<std::vector<uint8_t>> read(block_bytes.size());
    uint64_t n = 0;
    bool ok = readWord(f, &n) && n == block_bytes.size();
    for (uint64_t b = 0; ok && b < n; ++b) {
        uint64_t sz = 0;
        ok = readWord(f, &sz) && sz == block_bytes[b];
        if (ok) {
            read[b].resize(sz);
            ok = sz == 0 || std::fread(read[b].data(), 1, sz, f) == sz;
        }
    }
    ok = ok && std::fgetc(f) == EOF;
    std::fclose(f);
    if (ok)
        *blocks = std::move(read);
    return ok;
}

// Trial result hand-off -----------------------------------------------------
//
// The recovery child reports through one record of 64-bit words, each
// flag a 0/1 word; the parent owns killed_by_sigkill.

bool
writeTrialFile(const std::string &path, const CrashTrialResult &trial)
{
    std::vector<uint64_t> words;
    forEachRecordField(trial,
                       [&](const char *, auto v) { words.push_back(v); });
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(words.data(), sizeof(uint64_t), words.size(), f) ==
              words.size();
    return std::fclose(f) == 0 && ok;
}

bool
readTrialFile(const std::string &path, CrashTrialResult *trial)
{
    size_t n = 0;
    forEachRecordField(*trial, [&](const char *, const auto &) { ++n; });
    std::vector<uint64_t> words(n);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    bool ok = std::fread(words.data(), sizeof(uint64_t), n, f) == n &&
              std::fgetc(f) == EOF;
    std::fclose(f);

    CrashTrialResult read;
    read.killed_by_sigkill = trial->killed_by_sigkill;
    size_t i = 0;
    forEachRecordField(read, [&](const char *, auto &field) {
        const uint64_t w = words[i++];
        if constexpr (std::is_same_v<std::decay_t<decltype(field)>, bool>) {
            ok = ok && w <= 1;
            field = w == 1;
        } else {
            field = w;
        }
    });
    if (ok)
        *trial = read;
    return ok;
}

CrashHarnessResult
runCrashHarness(const CrashHarnessOptions &opts_in)
{
    CrashHarnessOptions opts = opts_in;
    if (opts.scale <= 0.0 || opts.scale > 1.0)
        GPULP_FATAL("harness scale must be in (0, 1], got %f", opts.scale);
    if (opts.grid_points + opts.random_points == 0)
        GPULP_FATAL("harness needs at least one crash point");

    bool made_dir = false;
    if (opts.work_dir.empty()) {
        const char *tmp = std::getenv("TMPDIR");
        std::string tmpl = std::string(tmp && *tmp ? tmp : "/tmp") +
                           "/gpulp_crash_XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        GPULP_ASSERT(::mkdtemp(buf.data()) != nullptr,
                     "mkdtemp(%s) failed: %s", tmpl.c_str(),
                     std::strerror(errno));
        opts.work_dir = buf.data();
        made_dir = true;
    }
    if (opts.file_device && opts.log_path.empty())
        opts.log_path = opts.work_dir + "/persist.log";
    const std::string golden_path = opts.work_dir + "/golden.bin";
    const std::string result_path = opts.work_dir + "/trial.bin";

    CrashHarnessResult result;
    result.options = opts;

    // Golden phase, in this process, scoped so the Device's worker
    // threads are joined before the first fork() — forking with live
    // simulator threads would duplicate a half-locked ThreadPool.
    {
        CrashTrial rig(trialCell(opts));
        result.num_blocks = rig.numBlocks();
        result.golden_stores = rig.runGolden();
        GPULP_ASSERT(writeGoldenFile(golden_path, rig.golden()),
                     "cannot write golden image %s", golden_path.c_str());
    }

    Prng rng(harnessSeed(opts.seed, opts.workload, opts.file_device));
    for (uint64_t point : pickCrashPoints(opts.grid_points,
                                          opts.random_points,
                                          result.golden_stores, rng)) {
        CrashTrialResult trial;
        trial.crash_point = point;

        pid_t victim = ::fork();
        GPULP_ASSERT(victim >= 0, "fork failed: %s", std::strerror(errno));
        if (victim == 0)
            runVictimProcess(opts, point); // dies by SIGKILL
        int status = 0;
        GPULP_ASSERT(::waitpid(victim, &status, 0) == victim,
                     "waitpid(victim) failed: %s", std::strerror(errno));
        trial.killed_by_sigkill =
            WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;

        if (trial.killed_by_sigkill) {
            removeIfExists(result_path);
            pid_t rec = ::fork();
            GPULP_ASSERT(rec >= 0, "fork failed: %s",
                         std::strerror(errno));
            if (rec == 0)
                runRecoveryProcess(opts, point, golden_path, result_path);
            GPULP_ASSERT(::waitpid(rec, &status, 0) == rec,
                         "waitpid(recovery) failed: %s",
                         std::strerror(errno));
            // A recovery child that failed, aborted or left an
            // unreadable record leaves the trial's recovery fields
            // all-false, which fails it.
            if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
                readTrialFile(result_path, &trial);
        }
        result.trials.push_back(trial);
    }

    if (!opts.keep_files) {
        removeIfExists(result_path);
        removeIfExists(golden_path);
        if (opts.file_device) {
            removeIfExists(opts.log_path);
            removeIfExists(opts.log_path + ".compact.tmp");
        }
        if (made_dir)
            ::remove(opts.work_dir.c_str());
    }
    return result;
}

void
writeCrashHarnessJson(JsonWriter &w, const CrashHarnessResult &result)
{
    const CrashHarnessOptions &o = result.options;
    w.beginObject();
    w.member("workload", o.workload);
    w.member("device", o.file_device ? "file" : "mem");
    w.member("table", toString(o.table));
    w.member("checksum", toString(o.checksum));
    w.member("scale", o.scale);
    w.member("seed", o.seed);
    w.member("workers", o.num_workers);
    w.member("num_blocks", result.num_blocks);
    w.member("golden_stores", result.golden_stores);
    w.member("passed", result.passed());
    w.beginArray("trials");
    for (const CrashTrialResult &t : result.trials) {
        w.beginObject(JsonWriter::kOneLine);
        forEachRecordField(
            t, [&](const char *key, const auto &v) { w.member(key, v); });
        w.member("sigkilled", t.killed_by_sigkill);
        w.end();
    }
    w.end();
    w.end();
}

} // namespace gpulp
