// The cluster's simulated network on its own: delivery order, the jitter
// bound, drops and their retransmission, duplicate suppression,
// partition windows, and typed message content.
#include "cluster/net.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"

namespace vaq {
namespace cluster {
namespace {

constexpr uint32_t kTag = 7;

Message MessageFor(int i) {
  Message message;
  message.query = 1000 + static_cast<uint64_t>(i);
  message.shard = i % 4;
  message.index = i;
  message.begin = static_cast<size_t>(3 * i);
  message.end = static_cast<size_t>(3 * i + 2);
  message.next_bound = 0.25 * i;
  message.more = i % 2 == 0;
  return message;
}

// Every pending delivery, in the order the net hands them out.
std::vector<Delivery> DrainAll(Net* net) {
  std::vector<Delivery> out;
  Delivery delivery;
  while (!net->idle()) {
    if (net->NextDelivery(&delivery)) out.push_back(delivery);
  }
  return out;
}

// Delivery time without jitter for a copy that departs at `depart_ms`.
double Unjittered(double depart_ms, int64_t wire_bytes) {
  return depart_ms + kBaseLatencyMs +
         static_cast<double>(wire_bytes) * kPerByteMs;
}

TEST(ClusterNetTest, DeliversInTimeThenSendOrder) {
  NetOptions options;
  options.jitter_ms = 0.0;  // Equal sends tie exactly.
  Net net(options, nullptr);
  // Five rounds sent at decreasing times, four equal messages per round.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) {
      net.Send(-1, i, kTag, "query", MessageFor(i), 16, 10.0 * (4 - round));
    }
  }
  double last_ms = -1.0;
  int64_t last_seq = -1;
  int count = 0;
  while (!net.idle()) {
    const double peek_ms = net.PeekTimeMs();
    Delivery delivery;
    ASSERT_TRUE(net.NextDelivery(&delivery));
    EXPECT_EQ(delivery.delivered_ms, peek_ms);
    if (delivery.delivered_ms == last_ms) {
      EXPECT_GT(delivery.seq, last_seq) << "a tie leaves in send order";
    } else {
      EXPECT_GT(delivery.delivered_ms, last_ms);
    }
    last_ms = delivery.delivered_ms;
    last_seq = delivery.seq;
    ++count;
  }
  EXPECT_EQ(count, 20);
  EXPECT_EQ(net.stats().deliveries, 20);
  EXPECT_EQ(net.PeekTimeMs(), std::numeric_limits<double>::infinity());
}

TEST(ClusterNetTest, JitterStaysWithinItsBound) {
  const NetOptions options;
  const fault::FaultPlan plan(fault::FaultSpec(), /*seed=*/42);
  Net net(options, &plan);
  for (int i = 0; i < 200; ++i) {
    net.Send(-1, i % 5, kTag, "fetch", MessageFor(i), 16 + i, 0.5 * i);
  }
  const std::vector<Delivery> deliveries = DrainAll(&net);
  ASSERT_EQ(deliveries.size(), 200u);
  double jitter_max = 0.0;
  for (const Delivery& delivery : deliveries) {
    EXPECT_EQ(delivery.attempts, 1);
    const double jitter =
        delivery.delivered_ms -
        Unjittered(delivery.sent_ms, delivery.wire_bytes);
    EXPECT_GE(jitter, 0.0);
    EXPECT_LT(jitter, options.jitter_ms);
    jitter_max = std::max(jitter_max, jitter);
  }
  EXPECT_GT(jitter_max, 0.0) << "a seeded plan jitters";
}

TEST(ClusterNetTest, DropIsRetransmittedOneRtoLaterAndCounted) {
  const NetOptions options;
  fault::FaultSpec spec;
  spec.net_drop_rate = 0.5;
  const fault::FaultPlan plan(spec, /*seed=*/9);
  Net net(options, &plan);
  for (int i = 0; i < 64; ++i) {
    net.Send(-1, 1, kTag, "fetch", MessageFor(i), 16, 1.0);
  }
  int64_t retransmissions = 0;
  for (const Delivery& delivery : DrainAll(&net)) {
    retransmissions += delivery.attempts - 1;
    const double depart_ms =
        delivery.sent_ms + (delivery.attempts - 1) * kRtoMs;
    const double jitter =
        delivery.delivered_ms -
        Unjittered(depart_ms, delivery.wire_bytes);
    EXPECT_GE(jitter, 0.0);
    EXPECT_LT(jitter, options.jitter_ms);
  }
  EXPECT_GT(retransmissions, 0);
  EXPECT_EQ(net.stats().drops, retransmissions);
  EXPECT_EQ(net.stats().deliveries, 64);

  // Every copy lost: the last attempt still goes through.
  spec.net_drop_rate = 1.0;
  const fault::FaultPlan always(spec, /*seed=*/9);
  Net lossy(options, &always);
  lossy.Send(-1, 1, kTag, "fetch", MessageFor(0), 16, 0.0);
  const std::vector<Delivery> deliveries = DrainAll(&lossy);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].attempts, options.max_attempts);
  EXPECT_EQ(lossy.stats().drops, options.max_attempts - 1);
  EXPECT_GE(deliveries[0].delivered_ms,
            Unjittered((options.max_attempts - 1) * kRtoMs, 16));
}

TEST(ClusterNetTest, DuplicateIsSuppressedExactlyOnce) {
  fault::FaultSpec spec;
  spec.net_dup_rate = 1.0;  // Every message gets a second copy.
  const fault::FaultPlan plan(spec, /*seed=*/5);
  Net net(NetOptions(), &plan);
  for (int i = 0; i < 10; ++i) {
    net.Send(-1, i % 3, kTag, "query", MessageFor(i), 64, 0.0);
  }
  std::set<int64_t> seqs;
  for (const Delivery& delivery : DrainAll(&net)) {
    EXPECT_TRUE(seqs.insert(delivery.seq).second)
        << "message " << delivery.seq << " delivered twice";
  }
  EXPECT_EQ(seqs.size(), 10u);
  EXPECT_EQ(net.stats().duplicates_suppressed, 10);
  EXPECT_EQ(net.stats().deliveries, 10);
}

TEST(ClusterNetTest, PartitionDelaysToItsClearTime) {
  NetOptions options;
  options.max_attempts = 3;
  fault::FaultSpec spec;
  spec.windows.push_back(
      fault::ScheduledWindow{fault::FaultDomain::kNetwork, -1, 0.0, 100.0});
  const fault::FaultPlan plan(spec, /*seed=*/3);
  Net net(options, &plan);
  net.Send(-1, 0, kTag, "query", MessageFor(0), 16, 10.0);
  net.Send(-1, 0, kTag, "query", MessageFor(1), 16, 150.0);
  const std::vector<Delivery> deliveries = DrainAll(&net);
  ASSERT_EQ(deliveries.size(), 2u);
  // Sent at 10 inside the window: copies at 10, 15 and 20 are lost, and
  // the last attempt departs when the partition lifts at 100.
  EXPECT_EQ(deliveries[0].message.index, 0);
  EXPECT_EQ(deliveries[0].attempts, options.max_attempts);
  const double jitter =
      deliveries[0].delivered_ms - Unjittered(100.0, 16);
  EXPECT_GE(jitter, 0.0);
  EXPECT_LT(jitter, options.jitter_ms);
  EXPECT_EQ(net.stats().partition_drops, 3);
  // Sent after the window: not delayed.
  EXPECT_EQ(deliveries[1].message.index, 1);
  EXPECT_EQ(deliveries[1].attempts, 1);
  EXPECT_LT(deliveries[1].delivered_ms,
            Unjittered(150.0, 16) + options.jitter_ms);
}

TEST(ClusterNetTest, TypedContentArrivesUnchanged) {
  Net net(NetOptions(), nullptr);
  for (int i = 0; i < 8; ++i) {
    net.Send(i, -1 - i, kTag + static_cast<uint32_t>(i), "batch",
             MessageFor(i), 100 + i, static_cast<double>(i));
  }
  net.Send(0, 4, kTag, "fetch", Message{}, 4096, 20.0);
  const std::vector<Delivery> deliveries = DrainAll(&net);
  ASSERT_EQ(deliveries.size(), 9u);
  for (int i = 0; i < 8; ++i) {
    const Delivery& delivery = deliveries[static_cast<size_t>(i)];
    const Message expected = MessageFor(i);
    EXPECT_EQ(delivery.from, i);
    EXPECT_EQ(delivery.to, -1 - i);
    EXPECT_EQ(delivery.tag, kTag + static_cast<uint32_t>(i));
    EXPECT_EQ(delivery.wire_bytes, 100 + i);
    EXPECT_EQ(delivery.message.query, expected.query);
    EXPECT_EQ(delivery.message.shard, expected.shard);
    EXPECT_EQ(delivery.message.index, expected.index);
    EXPECT_EQ(delivery.message.begin, expected.begin);
    EXPECT_EQ(delivery.message.end, expected.end);
    EXPECT_EQ(delivery.message.next_bound, expected.next_bound);
    EXPECT_EQ(delivery.message.more, expected.more);
  }
  const Message& empty = deliveries[8].message;
  EXPECT_EQ(empty.query, 0u);
  EXPECT_EQ(empty.end - empty.begin, 0u);
  EXPECT_EQ(deliveries[8].wire_bytes, 4096);
  EXPECT_EQ(net.stats().bytes, 4096 + 8 * 100 + 28);
}

}  // namespace
}  // namespace cluster
}  // namespace vaq
