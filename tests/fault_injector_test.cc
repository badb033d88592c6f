// The fault injector's whole value is determinism: the same schedule
// over the same stream must damage it identically, and seeking back to
// a checkpointed position must replay the identical damaged suffix —
// that is what makes kill-and-resume bit-exact even on dirty streams.
//
// Every source is batch-shaped, so every case here drains its stack at
// several `max_edges` and checks the batch contract on the way: the
// flattened events match the one-record drain's, and after each pull
// Position() and HasPendingReplay() are what the one-record drain saw
// after the same event. The schedule and the shard filter, the other
// span transforms of the engine's source stack, are held to the same
// contract.

#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine/shards.h"
#include "instance/generators.h"
#include "stream/fault_injector.h"
#include "stream/orderings.h"
#include "stream/schedule.h"
#include "util/rng.h"

namespace setcover {
namespace {

EdgeStream TestStream(uint64_t seed = 29) {
  Rng rng(seed);
  UniformRandomParams p;
  p.num_elements = 80;
  p.num_sets = 100;
  auto inst = GenerateUniformRandom(p, rng);
  return RandomOrderStream(inst, rng);
}

// One observable event: status plus the delivered edge (zeroed when the
// status carries no edge). A kOk pull contributes one event per record.
using Event = std::tuple<ReadStatus, uint32_t, uint32_t>;

// After a pull: events so far, Position(), HasPendingReplay().
using Mark = std::tuple<size_t, size_t, bool>;

struct Trace {
  std::vector<Event> events;
  std::vector<Mark> marks;
};

Trace Drain(EdgeSource& source, size_t max_edges) {
  Trace trace;
  for (;;) {
    const EdgeBatch batch = source.NextBatch(max_edges);
    EXPECT_LE(batch.edges.size(), max_edges);
    if (batch.status == ReadStatus::kOk) {
      EXPECT_FALSE(batch.edges.empty());
      for (const Edge& edge : batch.edges)
        trace.events.emplace_back(batch.status, edge.set, edge.element);
    } else if (batch.status == ReadStatus::kCorrupt) {
      EXPECT_EQ(batch.edges.size(), 1u);
      trace.events.emplace_back(batch.status, batch.edges[0].set,
                                batch.edges[0].element);
    } else {
      EXPECT_TRUE(batch.edges.empty());
      trace.events.emplace_back(batch.status, 0, 0);
    }
    trace.marks.emplace_back(trace.events.size(), source.Position(),
                             source.HasPendingReplay());
    if (batch.status == ReadStatus::kEnd) return trace;
  }
}

constexpr size_t kMaxEdges[] = {1, 3, 4096};

/// Drains a fresh stack from `make` (a callable returning a
/// std::unique_ptr to something with a `top()` source) at every
/// kMaxEdges entry, checks each drain against the one-record drain,
/// and returns that one.
template <typename Make>
Trace DrainAtEveryBatchSize(Make make) {
  Trace per_record;
  for (size_t max_edges : kMaxEdges) {
    auto stack = make();
    Trace trace = Drain(stack->top(), max_edges);
    if (max_edges == 1) {
      per_record = trace;
      continue;
    }
    EXPECT_EQ(trace.events, per_record.events) << "max_edges " << max_edges;
    for (const Mark& mark : trace.marks) {
      const size_t events = std::get<0>(mark);
      if (events < 1 || events > per_record.marks.size()) {
        ADD_FAILURE() << "max_edges " << max_edges << ": mark after "
                      << events << " events";
        continue;
      }
      EXPECT_EQ(mark, per_record.marks[events - 1])
          << "max_edges " << max_edges << " after event " << events;
    }
  }
  return per_record;
}

struct InjectedStack {
  InjectedStack(const EdgeStream& stream, const FaultSchedule& schedule)
      : base(stream), injector(&base, schedule) {}
  EdgeSource& top() { return injector; }
  VectorEdgeSource base;
  FaultInjector injector;
};

auto Injected(const EdgeStream& stream, const FaultSchedule& schedule) {
  return [&stream, schedule] {
    return std::make_unique<InjectedStack>(stream, schedule);
  };
}

TEST(FaultInjectorTest, SameScheduleSameDamage) {
  EdgeStream stream = TestStream();
  const FaultSchedule schedule = FaultSchedule::AllKinds(41, 0.05);
  EXPECT_EQ(DrainAtEveryBatchSize(Injected(stream, schedule)).events,
            DrainAtEveryBatchSize(Injected(stream, schedule)).events);
}

TEST(FaultInjectorTest, DifferentSeedsDamageDifferently) {
  EdgeStream stream = TestStream();
  EXPECT_NE(DrainAtEveryBatchSize(
                Injected(stream, FaultSchedule::AllKinds(41, 0.05)))
                .events,
            DrainAtEveryBatchSize(
                Injected(stream, FaultSchedule::AllKinds(42, 0.05)))
                .events);
}

TEST(FaultInjectorTest, SeekReplaysTheIdenticalFaultSuffix) {
  EdgeStream stream = TestStream();
  const FaultSchedule schedule = FaultSchedule::AllKinds(7, 0.08);
  const Trace full = DrainAtEveryBatchSize(Injected(stream, schedule));

  // Every point where a position-based checkpoint would be legal.
  std::vector<std::pair<size_t, size_t>> boundaries;
  for (const auto& [events, position, pending] : full.marks) {
    if (!pending && std::get<0>(full.events[events - 1]) != ReadStatus::kEnd)
      boundaries.emplace_back(position, events);
  }
  ASSERT_GT(boundaries.size(), 10u);

  for (size_t i = 0; i < boundaries.size(); i += boundaries.size() / 7) {
    auto [position, consumed] = boundaries[i];
    for (size_t max_edges : kMaxEdges) {
      InjectedStack replay(stream, schedule);
      ASSERT_TRUE(replay.injector.SeekTo(position));
      std::vector<Event> suffix = Drain(replay.top(), max_edges).events;
      ASSERT_EQ(suffix.size(), full.events.size() - consumed)
          << "cut " << i << " max_edges " << max_edges;
      for (size_t j = 0; j < suffix.size(); ++j)
        EXPECT_EQ(suffix[j], full.events[consumed + j])
            << "cut " << i << " max_edges " << max_edges << " event " << j;
    }
  }
}

TEST(FaultInjectorTest, AllFaultKindsActuallyFire) {
  EdgeStream stream = TestStream(31);
  const FaultSchedule schedule = FaultSchedule::AllKinds(5, 0.06);
  DrainAtEveryBatchSize(Injected(stream, schedule));
  for (size_t max_edges : kMaxEdges) {
    InjectedStack stack(stream, schedule);
    std::vector<Event> events = Drain(stack.top(), max_edges).events;
    const FaultInjector& injector = stack.injector;

    EXPECT_GT(injector.DeliveredFaults(FaultKind::kTransient), 0u);
    EXPECT_GT(injector.DeliveredFaults(FaultKind::kDuplicate), 0u);
    EXPECT_GT(injector.DeliveredFaults(FaultKind::kDrop), 0u);
    EXPECT_GT(injector.DeliveredFaults(FaultKind::kCorrupt), 0u);

    // Conservation: every underlying record is delivered once, plus one
    // extra per duplicate, minus dropped ones; corrupt deliveries are
    // flagged, never silent.
    size_t ok = 0, corrupt = 0;
    for (const auto& [status, set, element] : events) {
      if (status == ReadStatus::kOk) ++ok;
      if (status == ReadStatus::kCorrupt) {
        ++corrupt;
        EXPECT_TRUE(set >= stream.meta.num_sets ||
                    element >= stream.meta.num_elements)
            << "corrupt record not detectably out of range";
      }
    }
    EXPECT_EQ(ok, stream.size() +
                      injector.DeliveredFaults(FaultKind::kDuplicate) -
                      injector.DeliveredFaults(FaultKind::kDrop) -
                      injector.DeliveredFaults(FaultKind::kCorrupt));
    EXPECT_EQ(corrupt, injector.DeliveredFaults(FaultKind::kCorrupt));
  }
}

TEST(FaultInjectorTest, DuplicateDeliversTheSameRecordTwice) {
  EdgeStream stream = TestStream();
  FaultSchedule schedule;
  schedule.seed = 3;
  schedule.duplicate_rate = 1.0;
  DrainAtEveryBatchSize(Injected(stream, schedule));

  for (size_t max_edges : kMaxEdges) {
    InjectedStack stack(stream, schedule);
    FaultInjector& injector = stack.injector;
    for (size_t i = 0; i < stream.size(); ++i) {
      const EdgeBatch first = injector.NextBatch(max_edges);
      ASSERT_EQ(first.status, ReadStatus::kOk);
      ASSERT_EQ(first.edges.size(), 1u);
      const Edge copy = first.edges[0];
      EXPECT_TRUE(injector.HasPendingReplay());
      const EdgeBatch second = injector.NextBatch(max_edges);
      ASSERT_EQ(second.status, ReadStatus::kOk);
      ASSERT_EQ(second.edges.size(), 1u);
      EXPECT_FALSE(injector.HasPendingReplay());
      EXPECT_EQ(copy, second.edges[0]);
      EXPECT_EQ(copy, stream.edges[i]);
    }
    EXPECT_EQ(injector.NextBatch(max_edges).status, ReadStatus::kEnd);
  }
}

TEST(FaultInjectorTest, TransientFailsExactlyConfiguredTimes) {
  EdgeStream stream = TestStream();
  FaultSchedule schedule;
  schedule.seed = 3;
  schedule.transient_rate = 1.0;
  schedule.transient_failures = 3;
  DrainAtEveryBatchSize(Injected(stream, schedule));

  for (size_t max_edges : kMaxEdges) {
    InjectedStack stack(stream, schedule);
    FaultInjector& injector = stack.injector;
    for (size_t i = 0; i < stream.size(); ++i) {
      for (int f = 0; f < 3; ++f)
        ASSERT_EQ(injector.NextBatch(max_edges).status,
                  ReadStatus::kTransient)
            << i;
      const EdgeBatch batch = injector.NextBatch(max_edges);
      ASSERT_EQ(batch.status, ReadStatus::kOk) << i;
      ASSERT_EQ(batch.edges.size(), 1u) << i;
      EXPECT_EQ(batch.edges[0], stream.edges[i]);
    }
  }
}

TEST(FaultInjectorTest, DropOnlyScheduleLosesEverything) {
  EdgeStream stream = TestStream();
  FaultSchedule schedule;
  schedule.seed = 3;
  schedule.drop_rate = 1.0;
  for (size_t max_edges : kMaxEdges) {
    InjectedStack stack(stream, schedule);
    EXPECT_EQ(stack.injector.NextBatch(max_edges).status, ReadStatus::kEnd);
    EXPECT_EQ(stack.injector.DeliveredFaults(FaultKind::kDrop),
              stream.size());
  }
}

// A fault-free pull hands the base source's span through untouched.
TEST(FaultInjectorTest, FaultFreeRunsAliasTheBaseSpan) {
  EdgeStream stream = TestStream();
  InjectedStack stack(stream, FaultSchedule{});
  const EdgeBatch batch = stack.injector.NextBatch(stream.size());
  ASSERT_EQ(batch.status, ReadStatus::kOk);
  EXPECT_EQ(batch.edges.data(), stream.edges.data());
  EXPECT_EQ(batch.edges.size(), stream.size());
}

// source -> schedule [-> fault injector], the order the engine stacks
// them in.
struct ScheduledStack {
  ScheduledStack(const EdgeStream& stream, const ScheduleSpec& spec,
                 const std::optional<FaultSchedule>& faults)
      : base(stream), scheduled(&base, spec) {
    if (faults.has_value()) injector.emplace(&scheduled, *faults);
  }
  EdgeSource& top() {
    return injector.has_value() ? static_cast<EdgeSource&>(*injector)
                                : scheduled;
  }
  VectorEdgeSource base;
  ScheduledSource scheduled;
  std::optional<FaultInjector> injector;
};

auto Scheduled(const EdgeStream& stream, const ScheduleSpec& spec,
               std::optional<FaultSchedule> faults = std::nullopt) {
  return [&stream, spec, faults] {
    return std::make_unique<ScheduledStack>(stream, spec, faults);
  };
}

TEST(ScheduledSourceTest, TwoPassScheduleMatchesAtEveryBatchSize) {
  EdgeStream stream = TestStream();
  ScheduleSpec spec;
  spec.passes = 2;
  const Trace trace = DrainAtEveryBatchSize(Scheduled(stream, spec));
  ASSERT_EQ(trace.events.size(), 2 * stream.size() + 1);
  for (size_t i = 0; i < 2 * stream.size(); ++i) {
    const Edge& edge = stream.edges[i % stream.size()];
    EXPECT_EQ(trace.events[i],
              Event(ReadStatus::kOk, edge.set, edge.element))
        << i;
  }
  EXPECT_EQ(std::get<1>(trace.marks.back()), 2 * stream.size());

  // With faults keyed on the scheduled positions.
  DrainAtEveryBatchSize(
      Scheduled(stream, spec, FaultSchedule::AllKinds(13, 0.05)));
}

// The shard filter over a fault-injected source: every shard's drain
// matches at every batch size, events held back behind a batch of
// owned records included, and the shards' drains partition the
// injected stream.
TEST(ShardFilterSourceTest, ShardsMatchAtEveryBatchSize) {
  EdgeStream stream = TestStream();
  const FaultSchedule schedule = FaultSchedule::AllKinds(23, 0.05);
  const std::vector<Event> whole =
      DrainAtEveryBatchSize(Injected(stream, schedule)).events;
  for (uint32_t shards : {2u, 3u, 4u}) {
    size_t records = 0;
    for (uint32_t shard = 0; shard < shards; ++shard) {
      struct FilteredStack {
        FilteredStack(const EdgeStream& stream, const FaultSchedule& schedule,
                      uint32_t shard, uint32_t shards)
            : injected(stream, schedule),
              filter(&injected.injector, shard, shards) {}
        EdgeSource& top() { return filter; }
        InjectedStack injected;
        engine::internal::ShardFilterSource filter;
      };
      const Trace trace = DrainAtEveryBatchSize([&] {
        return std::make_unique<FilteredStack>(stream, schedule, shard,
                                               shards);
      });
      for (const auto& [status, set, element] : trace.events) {
        if (status == ReadStatus::kOk || status == ReadStatus::kCorrupt) {
          ++records;
          EXPECT_EQ(set % shards, shard);
        }
      }
    }
    size_t whole_records = 0;
    for (const auto& [status, set, element] : whole)
      whole_records += status == ReadStatus::kOk ||
                       status == ReadStatus::kCorrupt;
    EXPECT_EQ(records, whole_records) << "W=" << shards;
  }
}

}  // namespace
}  // namespace setcover
