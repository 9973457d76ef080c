/**
 * @file
 * Unit tests for the fiber substrate: switching, yielding, interleaved
 * scheduling, re-arming in place and deep-call correctness.
 */

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fiber/fiber.h"

namespace gpulp {
namespace {

TEST(FiberTest, RunsToCompletionWithoutYield)
{
    bool ran = false;
    Fiber fiber([&] { ran = true; });
    EXPECT_FALSE(fiber.started());
    fiber.resume();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(fiber.finished());
}

TEST(FiberTest, YieldSuspendsAndResumes)
{
    int step = 0;
    Fiber fiber([&] {
        step = 1;
        Fiber::yield();
        step = 2;
        Fiber::yield();
        step = 3;
    });
    fiber.resume();
    EXPECT_EQ(step, 1);
    EXPECT_FALSE(fiber.finished());
    fiber.resume();
    EXPECT_EQ(step, 2);
    EXPECT_FALSE(fiber.finished());
    fiber.resume();
    EXPECT_EQ(step, 3);
    EXPECT_TRUE(fiber.finished());
}

TEST(FiberTest, CurrentIsNullOutsideFiber)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *inside = nullptr;
    Fiber fiber([&] { inside = Fiber::current(); });
    fiber.resume();
    EXPECT_EQ(inside, &fiber);
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(FiberTest, RoundRobinInterleavesDeterministically)
{
    // Three fibers each append their id then yield, three times; a
    // round-robin scheduler must interleave them 012012012.
    std::string trace;
    std::vector<std::unique_ptr<Fiber>> fibers;
    for (int id = 0; id < 3; ++id) {
        fibers.push_back(std::make_unique<Fiber>([&trace, id] {
            for (int i = 0; i < 3; ++i) {
                trace += static_cast<char>('0' + id);
                Fiber::yield();
            }
        }));
    }
    bool any_alive = true;
    while (any_alive) {
        any_alive = false;
        for (auto &f : fibers) {
            if (!f->finished()) {
                f->resume();
                any_alive = true;
            }
        }
    }
    EXPECT_EQ(trace, "012012012");
}

TEST(FiberTest, LocalStateSurvivesYield)
{
    // Locals live on the fiber stack; they must survive suspension.
    long result = 0;
    Fiber fiber([&] {
        std::vector<int> data(100);
        std::iota(data.begin(), data.end(), 1);
        Fiber::yield();
        result = std::accumulate(data.begin(), data.end(), 0L);
    });
    fiber.resume();
    fiber.resume();
    EXPECT_EQ(result, 5050);
    EXPECT_TRUE(fiber.finished());
}

TEST(FiberTest, DeepCallChainOnFiberStack)
{
    // Recursion exercises a real stack, not a register trick.
    std::function<long(long)> tri = [&](long n) -> long {
        if (n == 0)
            return 0;
        if (n % 64 == 0)
            Fiber::yield();
        return n + tri(n - 1);
    };
    long result = 0;
    Fiber fiber([&] { result = tri(300); });
    while (!fiber.finished())
        fiber.resume();
    EXPECT_EQ(result, 300 * 301 / 2);
}

TEST(FiberTest, NestedFiberResume)
{
    // A fiber may itself resume another fiber (simulator never does,
    // but the substrate supports it); current() must track correctly.
    std::string trace;
    Fiber inner([&] {
        trace += "i1";
        Fiber::yield();
        trace += "i2";
    });
    Fiber outer([&] {
        trace += "o1";
        inner.resume();
        trace += "o2";
        EXPECT_EQ(Fiber::current(), nullptr ? nullptr : Fiber::current());
        inner.resume();
        trace += "o3";
    });
    outer.resume();
    EXPECT_EQ(trace, "o1i1o2i2o3");
    EXPECT_TRUE(outer.finished());
    EXPECT_TRUE(inner.finished());
}

TEST(FiberTest, ManyFibersSequential)
{
    long sum = 0;
    for (int i = 0; i < 2000; ++i) {
        Fiber fiber([&sum, i] { sum += i; });
        fiber.resume();
        EXPECT_TRUE(fiber.finished());
    }
    EXPECT_EQ(sum, 2000L * 1999 / 2);
}

TEST(FiberTest, RearmRunsEveryEntryOnTheSameStack)
{
    // The entry's frame address (the real stack, not an ASan fake
    // frame) must be identical on every run: re-arming reuses the
    // stack in place instead of mapping a new one.
    int runs = 0;
    const void *first_frame = nullptr;
    int moved = 0;
    Fiber fiber([&] {
        const void *frame = __builtin_frame_address(0);
        if (runs++ == 0)
            first_frame = frame;
        else if (frame != first_frame)
            ++moved;
    });
    for (int i = 0; i < 1000; ++i) {
        fiber.rearm(); // the first call re-arms a never-started fiber
        EXPECT_FALSE(fiber.started());
        fiber.resume();
        ASSERT_TRUE(fiber.finished()) << "run " << i;
    }
    EXPECT_EQ(runs, 1000);
    EXPECT_EQ(moved, 0) << "runs that started on a different frame";
}

TEST(FiberDeathTest, RearmingASuspendedFiberPanics)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            Fiber fiber([] { Fiber::yield(); });
            fiber.resume();
            fiber.rearm();
        },
        "re-arming a suspended fiber");
}

TEST(FiberTest, RearmedFibersInterleave)
{
    // Three fibers each log their id, yield, then log it upper-case;
    // round-robin resumes must interleave every run the same way.
    std::string trace;
    std::vector<std::unique_ptr<Fiber>> fibers;
    for (int id = 0; id < 3; ++id) {
        fibers.push_back(std::make_unique<Fiber>([&trace, id] {
            trace += static_cast<char>('a' + id);
            Fiber::yield();
            trace += static_cast<char>('A' + id);
        }));
    }
    for (int run = 0; run < 3; ++run) {
        for (auto &f : fibers)
            f->rearm();
        for (int pass = 0; pass < 2; ++pass)
            for (auto &f : fibers)
                f->resume();
        for (auto &f : fibers)
            EXPECT_TRUE(f->finished());
    }
    EXPECT_EQ(trace, "abcABCabcABCabcABC");
}

} // namespace
} // namespace gpulp
