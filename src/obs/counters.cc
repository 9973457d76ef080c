#include "counters.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/logging.h"
#include "obs/trace.h"

namespace gpulp::obs {

namespace {

struct CtrMeta {
    const char *name;
    const char *unit;
    const char *subsystem;
};

constexpr CtrMeta kCtrMeta[] = {
#define GPULP_OBS_X(sym, name, unit, subsys) {name, unit, subsys},
    GPULP_COUNTER_LIST(GPULP_OBS_X)
#undef GPULP_OBS_X
};

constexpr CtrMeta kHistMeta[] = {
#define GPULP_OBS_X(sym, name, unit, subsys) {name, unit, subsys},
    GPULP_HISTOGRAM_LIST(GPULP_OBS_X)
#undef GPULP_OBS_X
};

static_assert(sizeof(kCtrMeta) / sizeof(kCtrMeta[0]) == kNumCounters);
static_assert(sizeof(kHistMeta) / sizeof(kHistMeta[0]) == kNumHistograms);

/**
 * Owns every shard ever leased. Shards outlive their threads (retired
 * to a free list with totals intact) so no bump is ever lost; a new
 * thread reuses a retired shard and keeps accumulating.
 */
class Registry
{
  public:
    static Registry &
    instance()
    {
        static Registry *r = new Registry(); // leaked: threads may
                                             // outlive static dtors
        return *r;
    }

    detail::Shard *
    acquire()
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!free_.empty()) {
            detail::Shard *s = free_.back();
            free_.pop_back();
            return s;
        }
        shards_.push_back(std::make_unique<detail::Shard>());
        return shards_.back().get();
    }

    void
    release(detail::Shard *s)
    {
        std::lock_guard<std::mutex> lk(mu_);
        free_.push_back(s);
    }

    CountersSnapshot
    snapshot()
    {
        std::lock_guard<std::mutex> lk(mu_);
        CountersSnapshot snap;
        for (auto &h : snap.hists)
            h.min = UINT64_MAX;
        for (const auto &shard : shards_) {
            for (size_t c = 0; c < kNumCounters; ++c) {
                snap.counters[c] += shard->counters[c].load(
                    std::memory_order_relaxed);
            }
            for (size_t h = 0; h < kNumHistograms; ++h) {
                const auto &cell = shard->hists[h];
                HistSnapshot &out = snap.hists[h];
                out.count += cell.count.load(std::memory_order_relaxed);
                out.sum += cell.sum.load(std::memory_order_relaxed);
                out.min = std::min(
                    out.min, cell.min.load(std::memory_order_relaxed));
                out.max = std::max(
                    out.max, cell.max.load(std::memory_order_relaxed));
                for (size_t b = 0; b < kHistBuckets; ++b) {
                    out.buckets[b] += cell.buckets[b].load(
                        std::memory_order_relaxed);
                }
            }
        }
        for (auto &h : snap.hists) {
            if (h.count == 0)
                h.min = 0;
        }
        return snap;
    }

    void
    reset()
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (const auto &shard : shards_) {
            for (auto &c : shard->counters)
                c.store(0, std::memory_order_relaxed);
            for (auto &cell : shard->hists) {
                cell.count.store(0, std::memory_order_relaxed);
                cell.sum.store(0, std::memory_order_relaxed);
                cell.min.store(UINT64_MAX, std::memory_order_relaxed);
                cell.max.store(0, std::memory_order_relaxed);
                for (auto &b : cell.buckets)
                    b.store(0, std::memory_order_relaxed);
            }
        }
    }

  private:
    Registry() = default;

    std::mutex mu_;
    std::vector<std::unique_ptr<detail::Shard>> shards_;
    std::vector<detail::Shard *> free_;
};

/** Returns this thread's shard to the free list when the thread dies. */
struct ShardLease {
    detail::Shard *shard = nullptr;

    ~ShardLease()
    {
        if (shard != nullptr) {
            detail::t_shard = nullptr;
            Registry::instance().release(shard);
        }
    }
};

void
appendEscaped(std::string &out, const char *text)
{
    // Metric names are static identifiers, but keep the writer honest.
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p == '"' || *p == '\\')
            out.push_back('\\');
        out.push_back(*p);
    }
}

void
appendU64(std::string &out, uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

} // namespace

namespace detail {

std::atomic<bool> g_counters_enabled{false};

Shard *
leaseShard()
{
    thread_local ShardLease lease;
    if (lease.shard == nullptr)
        lease.shard = Registry::instance().acquire();
    t_shard = lease.shard;
    return lease.shard;
}

void
observeSlow(Shard &s, Hist h, uint64_t value)
{
    // Single-writer shard: relaxed load+store everywhere (see add()).
    auto bump = [](std::atomic<uint64_t> &cell, uint64_t delta) {
        cell.store(cell.load(std::memory_order_relaxed) + delta,
                   std::memory_order_relaxed);
    };
    Shard::HistCell &cell = s.hists[static_cast<size_t>(h)];
    bump(cell.count, 1);
    bump(cell.sum, value);
    bump(cell.buckets[std::bit_width(value)], 1);
    if (value < cell.min.load(std::memory_order_relaxed))
        cell.min.store(value, std::memory_order_relaxed);
    if (value > cell.max.load(std::memory_order_relaxed))
        cell.max.store(value, std::memory_order_relaxed);
}

} // namespace detail

const char *
name(Ctr c)
{
    return kCtrMeta[static_cast<size_t>(c)].name;
}

const char *
name(Hist h)
{
    return kHistMeta[static_cast<size_t>(h)].name;
}

const char *
unit(Ctr c)
{
    return kCtrMeta[static_cast<size_t>(c)].unit;
}

const char *
unit(Hist h)
{
    return kHistMeta[static_cast<size_t>(h)].unit;
}

const char *
subsystem(Ctr c)
{
    return kCtrMeta[static_cast<size_t>(c)].subsystem;
}

const char *
subsystem(Hist h)
{
    return kHistMeta[static_cast<size_t>(h)].subsystem;
}

double
HistSnapshot::percentile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    rank = std::min(std::max<uint64_t>(rank, 1), count);
    uint64_t cum = 0;
    for (size_t b = 0; b < kHistBuckets; ++b) {
        if (cum + buckets[b] < rank) {
            cum += buckets[b];
            continue;
        }
        // Bucket b holds [2^(b-1), 2^b); bucket 0 holds exact zeros.
        double v = 0.0;
        if (b > 0) {
            double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
            double hi = std::ldexp(1.0, static_cast<int>(b));
            double frac = static_cast<double>(rank - cum) /
                          static_cast<double>(buckets[b]);
            v = lo + (hi - lo) * frac;
        }
        v = std::max(v, static_cast<double>(min));
        v = std::min(v, static_cast<double>(max));
        return v;
    }
    return static_cast<double>(max);
}

void
setCountersEnabled(bool enabled)
{
    detail::g_counters_enabled.store(enabled, std::memory_order_relaxed);
}

CountersSnapshot
snapshotCounters()
{
    return Registry::instance().snapshot();
}

void
resetCounters()
{
    Registry::instance().reset();
}

std::string
countersJson(const CountersSnapshot &snap, const std::string &indent)
{
    std::string out = "{";
    const std::string inner = indent + "  ";
    bool first = true;
    for (size_t c = 0; c < kNumCounters; ++c) {
        if (snap.counters[c] == 0)
            continue; // elide zeros: only what the run actually touched
        out += first ? "\n" : ",\n";
        first = false;
        out += inner + "\"";
        appendEscaped(out, name(static_cast<Ctr>(c)));
        out += "\": ";
        appendU64(out, snap.counters[c]);
    }
    bool any_hist = false;
    for (const HistSnapshot &h : snap.hists)
        any_hist = any_hist || h.count > 0;
    if (any_hist) {
        out += first ? "\n" : ",\n";
        first = false;
        out += inner + "\"histograms\": {";
        bool first_h = true;
        for (size_t h = 0; h < kNumHistograms; ++h) {
            const HistSnapshot &hs = snap.hists[h];
            if (hs.count == 0)
                continue;
            out += first_h ? "\n" : ",\n";
            first_h = false;
            out += inner + "  \"";
            appendEscaped(out, name(static_cast<Hist>(h)));
            out += "\": {\"count\": ";
            appendU64(out, hs.count);
            out += ", \"sum\": ";
            appendU64(out, hs.sum);
            out += ", \"min\": ";
            appendU64(out, hs.min);
            out += ", \"max\": ";
            appendU64(out, hs.max);
            char stat_buf[128];
            std::snprintf(stat_buf, sizeof(stat_buf),
                          ", \"mean\": %.3f, \"p50\": %.1f, "
                          "\"p99\": %.1f, \"p999\": %.1f",
                          hs.mean(), hs.percentile(0.50),
                          hs.percentile(0.99), hs.percentile(0.999));
            out += stat_buf;
            // Buckets as {"2^k": n} for the non-empty powers of two.
            out += ", \"buckets\": {";
            bool first_b = true;
            for (size_t b = 0; b < kHistBuckets; ++b) {
                if (hs.buckets[b] == 0)
                    continue;
                if (!first_b)
                    out += ", ";
                first_b = false;
                out += "\"lt_2^";
                appendU64(out, b);
                out += "\": ";
                appendU64(out, hs.buckets[b]);
            }
            out += "}}";
        }
        out += "\n" + inner + "}";
    }
    out += first ? "}" : "\n" + indent + "}";
    return out;
}

void
writeCountersJson(const CountersSnapshot &snap, std::FILE *out,
                  const std::string &indent)
{
    std::fprintf(out, "\"counters\": %s",
                 countersJson(snap, indent).c_str());
}

void
initFromEnvOnce()
{
    static const bool once = [] {
        if (const char *env = std::getenv("GPULP_COUNTERS")) {
            if (std::strcmp(env, "0") == 0)
                setCountersEnabled(false);
            else if (std::strcmp(env, "1") == 0)
                setCountersEnabled(true);
            else
                GPULP_FATAL("GPULP_COUNTERS must be 0 or 1, got '%s'", env);
        }
        if (const char *env = std::getenv("GPULP_TRACE")) {
            if (*env != '\0')
                enableTrace(env);
        }
        return true;
    }();
    (void)once;
}

} // namespace gpulp::obs
