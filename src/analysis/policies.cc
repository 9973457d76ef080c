#include "policies.h"

#include <algorithm>

#include "common/fnv.h"
#include "obs/counters.h"
#include "sim/exec.h"

namespace gpulp {

// ---------------------------------------------------------------------
// TraceCollector
// ---------------------------------------------------------------------

void
TraceCollector::merge(BlockTrace &&trace)
{
    std::lock_guard<std::mutex> lk(mu_);
    blocks_.push_back(std::move(trace));
}

std::vector<BlockTrace>
TraceCollector::sortedBlocks() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<BlockTrace> out = blocks_;
    std::sort(out.begin(), out.end(),
              [](const BlockTrace &a, const BlockTrace &b) {
                  return a.rank < b.rank;
              });
    return out;
}

uint64_t
TraceCollector::combinedSignature() const
{
    std::lock_guard<std::mutex> lk(mu_);
    // XOR of per-block mixes: commutative, so the signature is
    // independent of which worker finished which block first.
    uint64_t sig = 0;
    for (const BlockTrace &b : blocks_)
        sig ^= fnvStep(fnvStep(kFnvOffset, b.rank), b.signature);
    return sig;
}

uint64_t
TraceCollector::totalRaces() const
{
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t n = 0;
    for (const BlockTrace &b : blocks_)
        n += b.races_total;
    return n;
}

void
TraceCollector::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    blocks_.clear();
}

// ---------------------------------------------------------------------
// RecordingPolicy
// ---------------------------------------------------------------------

RecordingPolicy::RecordingPolicy(uint64_t rank, TraceCollector *collector)
    : collector_(collector), recording_(collector != nullptr)
{
    trace_.rank = rank;
    trace_.signature = kFnvOffset;
}

RecordingPolicy::~RecordingPolicy()
{
    if (!recording_)
        return;

    trace_.races = hb_.races();
    trace_.races_total = hb_.racesTotal();

    // Backtrack candidates from flagged races: reversing the earlier
    // side of an unordered conflicting pair is exactly the DPOR move.
    for (const RaceRecord &r : trace_.races) {
        trace_.backtracks.push_back(
            BacktrackCandidate{r.decision_a, r.tid_b});
    }

    // Validity filter: the alternative must have been ready at the
    // decision and differ from what actually ran.
    std::vector<BacktrackCandidate> valid;
    for (const BacktrackCandidate &c : trace_.backtracks) {
        if (c.decision >= trace_.decisions.size())
            continue;
        const SchedDecision &d = trace_.decisions[c.decision];
        if (c.alt_tid == d.chosen)
            continue;
        if (!std::binary_search(d.ready.begin(), d.ready.end(), c.alt_tid))
            continue;
        valid.push_back(c);
    }
    std::sort(valid.begin(), valid.end(),
              [](const BacktrackCandidate &a, const BacktrackCandidate &b) {
                  return a.decision != b.decision ? a.decision < b.decision
                                                  : a.alt_tid < b.alt_tid;
              });
    valid.erase(std::unique(valid.begin(), valid.end(),
                            [](const BacktrackCandidate &a,
                               const BacktrackCandidate &b) {
                                return a.decision == b.decision &&
                                       a.alt_tid == b.alt_tid;
                            }),
                valid.end());
    trace_.backtracks = std::move(valid);

    obs::add(obs::Ctr::AnalysisDecisions, trace_.decisions.size());
    obs::add(obs::Ctr::AnalysisRaces, trace_.races_total);
    collector_->merge(std::move(trace_));
}

size_t
RecordingPolicy::cyclicChoice(const std::vector<uint32_t> &ready,
                              uint32_t last)
{
    if (last == kNoTid)
        return 0;
    // Smallest ready tid strictly greater than last, wrapping — the
    // exact pick ReadySet::popNextFrom(last + 1) makes.
    for (size_t i = 0; i < ready.size(); ++i) {
        if (ready[i] > last)
            return i;
    }
    return 0;
}

uint32_t
RecordingPolicy::pick(ReadySet &ready, uint32_t last)
{
    ready.collect(scratch_);
    if (scratch_.empty())
        return ReadySet::kNone;
    size_t idx = choose(scratch_, last, decision_count_);
    GPULP_ASSERT(idx < scratch_.size(), "policy chose index %zu of %zu",
                 idx, scratch_.size());
    uint32_t tid = scratch_[idx];
    bool taken = ready.take(tid);
    GPULP_ASSERT(taken, "policy chose tid %u that is not ready", tid);
    ++decision_count_;
    if (recording_) {
        trace_.signature = fnvStep(trace_.signature, tid);
        trace_.decisions.push_back(SchedDecision{tid, scratch_});
    }
    return tid;
}

void
RecordingPolicy::onBlockStart(uint32_t num_threads)
{
    if (recording_)
        hb_.onBlockStart(num_threads);
}

void
RecordingPolicy::onResume(uint32_t tid)
{
    if (recording_) {
        GPULP_ASSERT(decision_count_ > 0, "resume before any decision");
        hb_.onResume(tid,
                     static_cast<uint32_t>(decision_count_ - 1));
    }
}

void
RecordingPolicy::onPark(uint32_t tid, SchedEvent ev)
{
    if (recording_)
        hb_.onPark(tid, ev);
}

void
RecordingPolicy::onRelease(SchedEvent ev, const uint32_t *woken, uint32_t n,
                           uint32_t releaser)
{
    if (recording_)
        hb_.onRelease(ev, woken, n, releaser);
}

void
RecordingPolicy::recordAccess(uint32_t tid, bool shared, uint32_t slot,
                              uint64_t addr, uint32_t bytes,
                              AccessKind kind)
{
    if (!recording_)
        return;
    hb_.onAccess(tid, shared, slot, addr, bytes, kind);
    if (kind == AccessKind::AtomicRmw) {
        // Adjacent atomics by different threads on one address are a
        // schedule choice the explorer can flip even though they never
        // race: record the reversal as a backtrack candidate.
        uint64_t key = (shared ? (uint64_t{1} << 63) |
                                     (uint64_t{slot} << 40) | addr
                               : addr);
        uint32_t decision =
            static_cast<uint32_t>(decision_count_ - 1);
        auto it = last_atomic_.find(key);
        if (it != last_atomic_.end() && it->second.first != tid) {
            trace_.backtracks.push_back(
                BacktrackCandidate{it->second.second, tid});
        }
        last_atomic_[key] = {tid, decision};
    }
}

void
RecordingPolicy::onGlobalAccess(uint32_t tid, Addr addr, uint32_t bytes,
                                AccessKind kind)
{
    recordAccess(tid, /*shared=*/false, 0, addr, bytes, kind);
}

void
RecordingPolicy::onSharedAccess(uint32_t tid, uint32_t slot,
                                uint32_t offset, uint32_t bytes,
                                AccessKind kind)
{
    recordAccess(tid, /*shared=*/true, slot, offset, bytes, kind);
}

} // namespace gpulp
