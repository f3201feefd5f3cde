/**
 * @file
 * Tests of the benchmark's own decision rules (src/logic.h): the
 * ten-beyond percentile rule, the ladder's sustained / not-sustained
 * decision, and the cumulative-index freshness attribution.
 */

#include <vector>

#include <gtest/gtest.h>

#include "logic.h"

namespace sagabench {
namespace {

TEST(PercentileRule, NeedsTenSamplesBeyond)
{
    // Nearest rank: p90 of 100 samples is rank 90, with 10 beyond.
    EXPECT_EQ(percentileRank(100, 900), 90u);
    EXPECT_EQ(samplesBeyond(100, 900), 10u);
    EXPECT_TRUE(percentileReportable(100, 900));
    EXPECT_FALSE(percentileReportable(99, 900));
    EXPECT_TRUE(percentileReportable(1000, 990));
    EXPECT_FALSE(percentileReportable(999, 990));
    EXPECT_TRUE(percentileReportable(20, 500));
    EXPECT_FALSE(percentileReportable(19, 500));
    EXPECT_FALSE(percentileReportable(0, 500));
}

TEST(PercentileRule, TailIsHighestReportable)
{
    EXPECT_EQ(tailPermille(200000), 990u);
    EXPECT_EQ(tailPermille(1000), 990u);
    EXPECT_EQ(tailPermille(999), 900u);
    EXPECT_EQ(tailPermille(100), 900u);
    EXPECT_EQ(tailPermille(99), 500u);
    EXPECT_EQ(tailPermille(3), 500u);
}

TEST(PercentileRule, SummaryPicksNearestRank)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i); // unsorted on purpose
    const Summary s = summarize(v);
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.p50, 50);
    EXPECT_EQ(s.tailPermille, 900u);
    EXPECT_DOUBLE_EQ(s.tail, 90);

    const Summary few = summarize({3, 1, 2});
    EXPECT_DOUBLE_EQ(few.p50, 2);
    EXPECT_EQ(few.tailPermille, 500u);
    EXPECT_DOUBLE_EQ(few.tail, few.p50);

    EXPECT_DOUBLE_EQ(summarize({}).p50, 0);
}

LadderStep
step(double eps, std::uint64_t shed, std::uint64_t backlog, double p99,
     std::size_t samples = 1000)
{
    LadderStep s;
    s.offeredEps = eps;
    s.shedEdges = shed;
    s.backlogEndEdges = backlog;
    s.freshP99Ms = p99;
    s.freshSamples = samples;
    return s;
}

TEST(Ladder, SustainedNeedsNoShedNoBacklogAndFreshness)
{
    constexpr double kLimit = 250;
    constexpr std::uint64_t kEpoch = 16384;
    EXPECT_TRUE(stepSustained(step(64000, 0, 100, 40), kLimit, kEpoch));
    EXPECT_TRUE(stepSustained(step(64000, 0, kEpoch, 250), kLimit, kEpoch));
    EXPECT_FALSE(stepSustained(step(64000, 16, 0, 40), kLimit, kEpoch));
    EXPECT_FALSE(
        stepSustained(step(64000, 0, kEpoch + 1, 40), kLimit, kEpoch));
    EXPECT_FALSE(stepSustained(step(64000, 0, 0, 250.5), kLimit, kEpoch));
    EXPECT_FALSE(stepSustained(step(64000, 0, 0, 1, 0), kLimit, kEpoch));
}

TEST(Ladder, CapacityIsHighestStepWithAllBelowSustained)
{
    constexpr double kLimit = 250;
    constexpr std::uint64_t kEpoch = 16384;
    EXPECT_DOUBLE_EQ(writeCapacity({step(64000, 0, 0, 30),
                                    step(256000, 0, 0, 60),
                                    step(1024000, 5000, 60000, 900)},
                                   kLimit, kEpoch),
                     256000);
    EXPECT_DOUBLE_EQ(writeCapacity({step(64000, 0, 0, 30),
                                    step(256000, 0, 0, 60),
                                    step(1024000, 0, 0, 90)},
                                   kLimit, kEpoch),
                     1024000);
    // A failed lower step ends the ladder even if a higher one passed.
    EXPECT_DOUBLE_EQ(writeCapacity({step(64000, 0, 0, 30),
                                    step(256000, 0, 0, 300),
                                    step(1024000, 0, 0, 90)},
                                   kLimit, kEpoch),
                     64000);
    EXPECT_DOUBLE_EQ(
        writeCapacity({step(64000, 1, 0, 30)}, kLimit, kEpoch), 0);
}

TEST(Freshness, FirstEpochCoveringTheCumulativeIndex)
{
    // Three writes of 16 edges: cumulative indices 16, 32, 48.
    const std::vector<WriteRecord> writes = {
        {1.0, 16}, {1.5, 32}, {2.0, 48}};
    // Epoch returns: the first drains 16 edges, the second nothing new,
    // the third drains up to 48.
    const std::vector<EpochRecord> epochs = {
        {1.2, 16}, {1.7, 16}, {2.5, 48}};
    const std::vector<double> fresh = attributeFreshness(writes, epochs);
    ASSERT_EQ(fresh.size(), 3u);
    EXPECT_DOUBLE_EQ(fresh[0], 0.2); // published by the first epoch
    EXPECT_DOUBLE_EQ(fresh[1], 1.0); // not by the second: 16 < 32
    EXPECT_DOUBLE_EQ(fresh[2], 0.5);
}

TEST(Freshness, PartialDrainDoesNotCoverAWrite)
{
    // An epoch that drained only part of a write's range has not
    // published that write.
    const std::vector<WriteRecord> writes = {{0.0, 16}};
    const std::vector<EpochRecord> epochs = {{0.1, 15}, {0.3, 16}};
    EXPECT_DOUBLE_EQ(attributeFreshness(writes, epochs)[0], 0.3);
}

TEST(Freshness, UncoveredWritesAreNeverPublished)
{
    const std::vector<WriteRecord> writes = {{0.0, 16}, {0.1, 32}};
    const std::vector<EpochRecord> epochs = {{0.2, 16}};
    const std::vector<double> fresh = attributeFreshness(writes, epochs);
    EXPECT_DOUBLE_EQ(fresh[0], 0.2);
    EXPECT_EQ(fresh[1], kNeverPublished);
    EXPECT_EQ(attributeFreshness(writes, {})[0], kNeverPublished);
}

} // namespace
} // namespace sagabench
