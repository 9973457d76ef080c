#include "trace.h"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/json.h"
#include "common/logging.h"

namespace gpulp::obs {

namespace {

using Clock = std::chrono::steady_clock;

/** One buffered event; dur_us == UINT64_MAX marks an instant. */
struct Event {
    const char *name;
    const char *cat;
    const char *arg_name; //!< nullptr when the event carries no arg
    uint64_t ts_us;
    uint64_t dur_us;
    uint64_t arg;
    uint32_t tid;
};

struct TraceState {
    std::mutex mu;
    std::vector<Event> events;
    std::string chrome_path;
    Clock::time_point epoch;
    uint32_t next_tid = 0;
    bool atexit_registered = false;
};

TraceState &
state()
{
    static TraceState *s = new TraceState(); // leaked: see Registry
    return *s;
}

/** Stable small id per host thread — one Chrome track per worker. */
uint32_t
threadTid()
{
    thread_local uint32_t tid = [] {
        TraceState &s = state();
        std::lock_guard<std::mutex> lk(s.mu);
        return s.next_tid++;
    }();
    return tid;
}

void
atexitFlush()
{
    if (traceEnabled())
        flushTrace();
}

/** The Chrome trace: one process, one track per host thread. */
void
writeChrome(JsonWriter &w, const std::vector<Event> &events)
{
    w.beginObject();
    w.member("displayTimeUnit", "ms");
    w.beginArray("traceEvents");
    // Name the process so Perfetto shows something meaningful in the
    // track header.
    w.beginObject(JsonWriter::kOneLine);
    w.member("name", "process_name");
    w.member("ph", "M");
    w.member("pid", 1);
    w.member("tid", 0);
    w.beginObject("args");
    w.member("name", "gpulp");
    w.end();
    w.end();
    for (const Event &e : events) {
        const bool instant = e.dur_us == UINT64_MAX;
        w.beginObject(JsonWriter::kOneLine);
        w.member("name", e.name);
        w.member("cat", e.cat);
        w.member("ph", instant ? "i" : "X");
        if (instant)
            w.member("s", "t");
        w.member("ts", e.ts_us);
        if (!instant)
            w.member("dur", e.dur_us);
        w.member("pid", 1);
        w.member("tid", e.tid);
        if (e.arg_name != nullptr) {
            w.beginObject("args");
            w.member(e.arg_name, e.arg);
            w.end();
        }
        w.end();
    }
    w.end();
    w.end();
}

/** The JSONL log: one flat object per event, one event per line. */
void
writeJsonl(JsonWriter &w, const std::vector<Event> &events)
{
    for (const Event &e : events) {
        w.beginObject(JsonWriter::kOneLine);
        w.member("ts_us", e.ts_us);
        if (e.dur_us != UINT64_MAX)
            w.member("dur_us", e.dur_us);
        w.member("tid", e.tid);
        w.member("name", e.name);
        w.member("cat", e.cat);
        if (e.arg_name != nullptr)
            w.member(e.arg_name, e.arg);
        w.end();
    }
}

} // namespace

namespace detail {

std::atomic<bool> g_trace_enabled{false};

uint64_t
nowUs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - state().epoch)
            .count());
}

void
recordSpan(const char *name, const char *cat, uint64_t start_us,
           uint64_t end_us, uint64_t arg, const char *arg_name)
{
    // Enabled-state may have flipped since the span opened; buffering
    // one extra event is harmless.
    const uint32_t tid = threadTid();
    TraceState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.events.push_back(Event{name, cat, arg_name, start_us,
                             end_us - start_us, arg, tid});
}

} // namespace detail

void
enableTrace(const std::string &chrome_path)
{
    GPULP_ASSERT(!chrome_path.empty(), "empty trace path");
    TraceState &s = state();
    {
        std::lock_guard<std::mutex> lk(s.mu);
        s.events.clear();
        s.chrome_path = chrome_path;
        s.epoch = Clock::now();
        if (!s.atexit_registered) {
            std::atexit(atexitFlush);
            s.atexit_registered = true;
        }
    }
    detail::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void
disableTrace()
{
    detail::g_trace_enabled.store(false, std::memory_order_relaxed);
    TraceState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.events.clear();
    s.chrome_path.clear();
}

std::string
tracePath()
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    return s.chrome_path;
}

void
traceInstant(const char *name, const char *cat, uint64_t arg,
             const char *arg_name)
{
    if (!traceEnabled())
        return;
    const uint64_t ts = detail::nowUs();
    const uint32_t tid = threadTid();
    TraceState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.events.push_back(
        Event{name, cat, arg_name, ts, UINT64_MAX, arg, tid});
}

bool
flushTrace()
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.chrome_path.empty())
        return false;
    const auto write = [&](const std::string &path, auto format) {
        return writeJsonFile(
            path.c_str(), [&](JsonWriter &w) { format(w, s.events); },
            /*quiet=*/true);
    };
    return write(s.chrome_path, writeChrome) &&
           write(s.chrome_path + ".jsonl", writeJsonl);
}

size_t
traceEventCount()
{
    TraceState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    return s.events.size();
}

} // namespace gpulp::obs
