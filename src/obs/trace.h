/**
 * @file
 * Structured event tracing: scoped wall-clock spans and instant events
 * recorded per host thread, exported as a Chrome trace (load the file
 * in chrome://tracing or https://ui.perfetto.dev) plus a compact JSONL
 * event log for scripted analysis.
 *
 * What gets traced (when enabled): kernel launches, per-block
 * execution on the worker pool (one Chrome track per worker thread),
 * checksum folds, validate/recover rounds, and NVM persist/crash
 * events. The spans measure *host wall time* — they show where a
 * reproduction run actually spends its time and how the parallel block
 * engine overlaps work, complementing the simulated-cycle numbers the
 * benches report.
 *
 * Enabling: GPULP_TRACE=path in the environment (honoured by every
 * binary — Device construction applies it), or `--trace path` on the
 * bench/tool CLIs, or enableTrace() programmatically. The Chrome JSON
 * is written to `path` and the JSONL log to `path.jsonl`; both are
 * (re)written by flushTrace() and by an atexit hook, so crashing tools
 * still leave a readable trace behind.
 *
 * Cost: disabled, a span is one relaxed atomic load; enabled, each
 * span/instant takes a clock read and a mutex-guarded append. Spans
 * are block-granular or coarser, keeping the enabled overhead on
 * Table V under the 3% budget (measured in EXPERIMENTS.md).
 */

#ifndef GPULP_OBS_TRACE_H
#define GPULP_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>

namespace gpulp::obs {

namespace detail {

/** Global trace-enable flag; one relaxed load gates every span. */
extern std::atomic<bool> g_trace_enabled;

/** Record a completed span (cold path; called by ~TraceSpan). */
void recordSpan(const char *name, const char *cat, uint64_t start_us,
                uint64_t end_us, uint64_t arg, const char *arg_name);

/** Microseconds since the trace epoch (enableTrace time). */
uint64_t nowUs();

} // namespace detail

/** True when tracing is on (cheap; callable from hot paths). */
inline bool
traceEnabled()
{
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/**
 * Start tracing. Chrome-trace JSON goes to @p chrome_path, the JSONL
 * event log to `chrome_path + ".jsonl"`. Events recorded before a
 * previous disableTrace() are dropped; an atexit hook flushes whatever
 * is buffered at process exit.
 */
void enableTrace(const std::string &chrome_path);

/** Stop tracing and drop any buffered events. */
void disableTrace();

/** Path the Chrome trace will be written to ("" when disabled). */
std::string tracePath();

/** Record a zero-duration event (no-op while disabled). */
void traceInstant(const char *name, const char *cat, uint64_t arg = 0,
                  const char *arg_name = nullptr);

/**
 * Write the Chrome JSON and JSONL files from everything buffered so
 * far. Idempotent — the buffer is kept, so later flushes rewrite the
 * files with strictly more events. Returns false (with a message on
 * stderr) if a file cannot be written.
 */
bool flushTrace();

/** Number of events buffered since enableTrace() (tests/diagnostics). */
size_t traceEventCount();

/**
 * RAII scoped span: records [construction, destruction) on this host
 * thread's track. The literal @p name / @p cat / @p arg_name pointers
 * are kept, not copied — pass string literals. Pass @p active = false
 * to make a span conditional without branching at the call site (e.g.
 * only block-thread 0 records the checksum fold).
 */
class TraceSpan
{
  public:
    TraceSpan(const char *name, const char *cat, uint64_t arg = 0,
              const char *arg_name = nullptr, bool active = true)
        : name_(name), cat_(cat), arg_name_(arg_name), arg_(arg),
          active_(active && traceEnabled())
    {
        if (active_)
            start_us_ = detail::nowUs();
    }

    ~TraceSpan()
    {
        if (active_) {
            detail::recordSpan(name_, cat_, start_us_, detail::nowUs(),
                               arg_, arg_name_);
        }
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    const char *name_;
    const char *cat_;
    const char *arg_name_;
    uint64_t arg_;
    uint64_t start_us_ = 0;
    bool active_;
};

} // namespace gpulp::obs

#endif // GPULP_OBS_TRACE_H
