// Deterministic simulated network.
//
// Every cluster message travels through one `Net`: a discrete-event
// queue on the fault::SimClock virtual-millisecond axis. Delivery time
// is a pure function of (send time, payload size, link, sequence
// number), so a run replays identically regardless of host machine or
// wall-clock behaviour:
//
//   deliver = send + kBaseLatencyMs + bytes * kPerByteMs + jitter(link, seq)
//
// The bounded jitter term is what "reordering within allowed bounds"
// means: two messages on different links (or back-to-back on one link)
// may swap delivery order, but never by more than `jitter_ms`. Drops and
// duplicates come from the seeded fault plan (FaultSpec::net_drop_rate /
// net_dup_rate): a dropped copy is retransmitted after `kRtoMs` (each
// attempt draws a fresh fault decision), and a duplicated message's
// second copy is suppressed at the receiver by (link, seq) dedup. Both
// only delay or inflate traffic — they never change what is delivered,
// which keeps the cluster's logical results byte-identical under any
// fault plan. Scheduled partition windows (FaultSpec::windows with
// domain kNetwork) behave like forced drops: copies transmitted inside
// a window are lost and retried until connectivity returns.
//
// All traffic is accounted in the `vaq_cluster_net_*` metric families.
#ifndef VAQ_CLUSTER_NET_H_
#define VAQ_CLUSTER_NET_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "fault/fault_plan.h"

namespace vaq {
namespace cluster {

inline constexpr double kBaseLatencyMs = 0.2;  // Per-hop fixed latency.
inline constexpr double kPerByteMs = 1e-5;  // Transfer cost per payload byte.
inline constexpr double kRtoMs = 5.0;  // Retransmission delay after a drop.

struct NetOptions {
  double jitter_ms = 0.05;       // Bounded reordering window.
  int max_attempts = 16;         // Last attempt always goes through.
};

// What a message says, as a value: the simulation hands the logical
// content across, and Send's `wire_bytes` prices what a real
// serialization would ship. A query or fetch names a batch by
// (shard, index); a batch reply carries the batch itself.
struct Message {
  uint64_t query = 0;  // The statement's serial; a reply echoes it.
  int shard = 0;
  int index = 0;  // Batch number within the shard's stream.
  // A batch reply's slice of the shard run, [begin, end); the highest
  // merge score still unsent after it (the shard's remaining upper
  // bound, -infinity when the stream is exhausted); whether more follow.
  size_t begin = 0;
  size_t end = 0;
  double next_bound = 0.0;
  bool more = false;
};
static_assert(std::is_trivially_copyable_v<Message>);

// One message arrival, handed to the receiver in delivery-time order.
struct Delivery {
  int from = 0;
  int to = 0;
  uint32_t tag = 0;
  Message message;
  int64_t wire_bytes = 0;
  int64_t seq = 0;       // Net-wide send order.
  double sent_ms = 0.0;
  double delivered_ms = 0.0;
  int attempts = 1;      // Transmissions needed (1 = no drops).
};

struct NetStats {
  int64_t messages = 0;               // Send() calls.
  int64_t deliveries = 0;             // Deliveries handed out.
  int64_t drops = 0;                  // Lost transmissions (retransmitted).
  int64_t partition_drops = 0;        // Copies lost to partition windows.
  int64_t duplicates_suppressed = 0;  // Fault-plan copies deduped.
  int64_t bytes = 0;                  // Payload bytes sent.
};

class Net {
 public:
  // `plan` (optional) drives drops and duplicates and seeds the jitter;
  // a null plan gives a fault-free network with seed-0 jitter.
  Net(NetOptions options, const fault::FaultPlan* plan);

  // Queues a message sent at virtual time `send_ms`. `tag_name` labels
  // the vaq_cluster_net_messages_total counter and is one of "query",
  // "fetch" or "batch". `wire_bytes` is the modeled on-the-wire
  // size, which transfer time is charged for.
  void Send(int from, int to, uint32_t tag, const char* tag_name,
            const Message& message, int64_t wire_bytes, double send_ms);

  // Room for `pending` copies in flight without growing the queue.
  void Reserve(size_t pending) { queue_.reserve(pending); }

  // Pops the earliest pending delivery (ties broken by send order).
  // Duplicate copies are suppressed here. False when idle.
  bool NextDelivery(Delivery* out);

  // Virtual time of the next pending copy; infinity when idle. The copy
  // may be a duplicate that NextDelivery then suppresses, so a following
  // NextDelivery can return false or a later delivery.
  double PeekTimeMs() const;

  bool idle() const { return queue_.empty(); }
  const NetStats& stats() const { return stats_; }

 private:
  struct Pending {
    double delivered_ms;
    int64_t order;  // Tie-break: copies delivered strictly in send order.
    Delivery delivery;
    bool duplicate;
    bool operator>(const Pending& other) const {
      if (delivered_ms != other.delivered_ms) {
        return delivered_ms > other.delivered_ms;
      }
      return order > other.order;
    }
  };

  void Push(const Pending& pending);

  NetOptions options_;
  const fault::FaultPlan* plan_;
  uint64_t seed_;
  int64_t next_seq_ = 0;
  int64_t next_order_ = 0;
  // Min-heap on (delivered_ms, order) under std::greater: the earliest
  // copy is at the front.
  std::vector<Pending> queue_;
  NetStats stats_;
};

}  // namespace cluster
}  // namespace vaq

#endif  // VAQ_CLUSTER_NET_H_
