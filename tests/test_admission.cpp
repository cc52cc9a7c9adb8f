/**
 * @file
 * Tests for the serving admission queue: the head is the
 * earliest-queued job of any class, batches take the head's class in
 * queue order under both batch caps, skipped candidates keep their
 * place (and their position against other classes), and draining
 * hands jobs out in queue order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "serve/admission.h"

using namespace ciflow::serve;

namespace
{

/** Queue jobs 0..n-1 with the given classes, ready at their index. */
AdmissionQueue
queued(const std::vector<std::uint32_t> &classes)
{
    AdmissionQueue q;
    q.reset(3);
    for (std::uint32_t j = 0; j < classes.size(); ++j)
        q.push(classes[j], {static_cast<double>(j), j});
    return q;
}

const auto kNoSkip = [](std::uint32_t) { return false; };

TEST(AdmissionQueue, HeadIsTheEarliestQueuedJob)
{
    AdmissionQueue q = queued({1, 0, 1, 2});
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(q.headClass(), 1u);
    EXPECT_EQ(q.front(1).job, 0u);
    q.pop(1);
    EXPECT_EQ(q.headClass(), 0u);
    EXPECT_EQ(q.front(0).job, 1u);
    EXPECT_EQ(q.front(0).ready, 1.0);
    q.pop(0);
    EXPECT_EQ(q.headClass(), 1u);
    EXPECT_EQ(q.front(1).job, 2u);
    EXPECT_EQ(q.size(), 2u);
}

TEST(AdmissionQueue, BatchTakesTheHeadClassInOrderUpToTheTarget)
{
    AdmissionQueue q = queued({0, 1, 0, 0, 2, 0, 0});
    BatchPolicy pol;
    pol.targetBatch = 3;
    std::vector<std::uint32_t> ids;
    q.takeBatch(0, pol, 1.0, 1.0, kNoSkip, ids);
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 2, 3}));
    EXPECT_EQ(q.size(), 4u);
    // Job 1 (class 1) now heads the queue; class 0 resumes at job 5.
    EXPECT_EQ(q.headClass(), 1u);
    EXPECT_EQ(q.front(0).job, 5u);
}

TEST(AdmissionQueue, DurationCapClosesTheBatch)
{
    AdmissionQueue q = queued({0, 0, 0, 0, 0});
    BatchPolicy pol;
    pol.targetBatch = 8;
    pol.targetBatchSec = 2.5;
    std::vector<std::uint32_t> ids;
    // Leader 1 s, followers 1 s each: the estimate reaches 3 s >= 2.5 s
    // after two followers.
    q.takeBatch(0, pol, 1.0, 1.0, kNoSkip, ids);
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 1, 2}));
    EXPECT_EQ(q.size(), 2u);
}

TEST(AdmissionQueue, SkippedCandidatesKeepTheirPlace)
{
    AdmissionQueue q = queued({0, 0, 1, 0, 0, 0});
    BatchPolicy pol;
    pol.targetBatch = 3;
    std::vector<std::uint32_t> ids;
    q.takeBatch(0, pol, 1.0, 1.0,
                [](std::uint32_t j) { return j == 1 || j == 3; }, ids);
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 4, 5}));
    EXPECT_EQ(q.size(), 3u);
    // Job 1 kept its stamp: it still precedes job 2 of class 1.
    EXPECT_EQ(q.headClass(), 0u);
    EXPECT_EQ(q.front(0).job, 1u);
    std::vector<std::uint32_t> order;
    q.drain([&](const AdmissionQueue::Item &it) { order.push_back(it.job); });
    EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(AdmissionQueue, DrainFollowsQueueOrderAcrossClasses)
{
    AdmissionQueue q = queued({2, 0, 1, 0, 2, 1});
    std::vector<std::uint32_t> order;
    q.drain([&](const AdmissionQueue::Item &it) { order.push_back(it.job); });
    EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(q.size(), 0u);
}

} // namespace
