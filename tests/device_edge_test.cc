// Edge-case device model tests: readahead fast paths, NCQ reordering,
// cancellation, teardown mid-flight, tracing, stats accounting, and capacity
// enforcement.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "io/device_factory.h"
#include "io/hdd_device.h"
#include "io/raid_device.h"
#include "io/ssd_device.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace pioqo::io {
namespace {

TEST(SsdReadaheadTest, SequentialContinuationIsFast) {
  sim::Simulator sim;
  SsdDevice ssd(sim, SsdGeometry::ConsumerPcie());
  // First read pays the flash path; the exact continuation rides readahead.
  double first_done = 0, second_done = 0;
  ssd.Submit(IoRequest{IoRequest::Kind::kRead, 0, 4096},
             [&](const IoResult&) { first_done = sim.Now(); });
  sim.Run();
  ssd.Submit(IoRequest{IoRequest::Kind::kRead, 4096, 4096},
             [&](const IoResult&) { second_done = sim.Now(); });
  sim.Run();
  const double first_latency = first_done;
  const double second_latency = second_done - first_done;
  EXPECT_LT(second_latency, first_latency / 5.0);
}

TEST(SsdReadaheadTest, NonContiguousReadBreaksReadahead) {
  sim::Simulator sim;
  SsdDevice ssd(sim, SsdGeometry::ConsumerPcie());
  ssd.Submit(IoRequest{IoRequest::Kind::kRead, 0, 4096}, [](const IoResult&) {});
  sim.Run();
  double t0 = sim.Now();
  // A gap: full flash latency again.
  ssd.Submit(IoRequest{IoRequest::Kind::kRead, 1 << 20, 4096},
             [](const IoResult&) {});
  sim.Run();
  EXPECT_GT(sim.Now() - t0, ssd.geometry().unit_read_us * 0.8);
}

TEST(SsdReadaheadTest, SequentialSinglePageStreamThroughput) {
  // Single-threaded 4 KiB sequential read stream: the readahead path keeps
  // it at hundreds of MB/s (this is what makes the DTT's band size 1 the
  // cheap "sequential" point).
  sim::Simulator sim;
  SsdDevice ssd(sim, SsdGeometry::ConsumerPcie());
  bool done = false;
  auto reader = [&]() -> sim::Task {
    for (uint64_t off = 0; off < (64ull << 20); off += 4096) {
      EXPECT_TRUE((co_await ssd.Read(off, 4096)).ok());
    }
    done = true;
  };
  reader().Detach();
  sim.Run();
  ASSERT_TRUE(done);
  double mbps = ssd.stats().ThroughputMbps();
  EXPECT_GT(mbps, 300.0);
  EXPECT_LT(mbps, 1500.0);
}

TEST(HddNcqTest, ReorderingServesNearbyRequestFirst) {
  sim::Simulator sim;
  HddDevice hdd(sim, HddGeometry::Commodity7200());
  std::vector<int> completion_order;
  // Prime the head at offset 0, then queue far-then-near while busy.
  hdd.Submit(IoRequest{IoRequest::Kind::kRead, 0, 4096}, [&](const IoResult&) {
    completion_order.push_back(0);
  });
  hdd.Submit(IoRequest{IoRequest::Kind::kRead, hdd.capacity_bytes() - 4096,
                       4096},
             [&](const IoResult&) { completion_order.push_back(1); });
  hdd.Submit(IoRequest{IoRequest::Kind::kRead, 8192, 4096},
             [&](const IoResult&) { completion_order.push_back(2); });
  sim.Run();
  // The near request (2) jumps ahead of the far one (1).
  EXPECT_EQ(completion_order, (std::vector<int>{0, 2, 1}));
}

TEST(HddNcqTest, WindowLimitsReordering) {
  sim::Simulator sim;
  auto geometry = HddGeometry::Commodity7200();
  geometry.ncq_depth = 1;  // no reordering at all
  HddDevice hdd(sim, geometry, "fifo-hdd");
  std::vector<int> completion_order;
  hdd.Submit(IoRequest{IoRequest::Kind::kRead, 0, 4096},
             [&](const IoResult&) { completion_order.push_back(0); });
  hdd.Submit(IoRequest{IoRequest::Kind::kRead, hdd.capacity_bytes() - 4096,
                       4096},
             [&](const IoResult&) { completion_order.push_back(1); });
  hdd.Submit(IoRequest{IoRequest::Kind::kRead, 8192, 4096},
             [&](const IoResult&) { completion_order.push_back(2); });
  sim.Run();
  EXPECT_EQ(completion_order, (std::vector<int>{0, 1, 2}));  // strict FIFO
}

TEST(RaidTest, LargeRequestSpansAllMembers) {
  sim::Simulator sim;
  RaidDevice raid(sim, 4, HddGeometry::Enterprise15000(), 64 * 1024);
  int completions = 0;
  // 4 chunks x 64 KiB = one chunk per member.
  raid.Submit(IoRequest{IoRequest::Kind::kRead, 0, 4 * 64 * 1024},
              [&](const IoResult&) { ++completions; });
  sim.Run();
  EXPECT_EQ(completions, 1);
  for (int m = 0; m < 4; ++m) {
    EXPECT_EQ(raid.member(m).stats().reads(), 1u) << "member " << m;
  }
}

// Device::Cancel: a request is reclaimable only while the model can still
// guarantee its completion never fires.

TEST(DeviceCancelTest, SsdDropsOnlyCommandsAwaitingAnNcqSlot) {
  sim::Simulator sim;
  SsdDevice ssd(sim, SsdGeometry::ConsumerPcie());
  const int n = ssd.geometry().ncq_slots + 1;
  std::vector<int> completions(static_cast<size_t>(n), 0);
  std::vector<uint64_t> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(ssd.Submit(
        IoRequest{IoRequest::Kind::kRead,
                  static_cast<uint64_t>(i) * (8 << 20), 4096},
        [&completions, i](const IoResult&) {
          ++completions[static_cast<size_t>(i)];
        }));
  }
  // Every slot is taken, so the last command waits in the admission queue.
  EXPECT_TRUE(ssd.Cancel(ids.back()));
  EXPECT_FALSE(ssd.Cancel(ids.back())) << "already dropped";
  EXPECT_FALSE(ssd.Cancel(ids.front())) << "admitted: beyond recall";
  sim.Run();
  EXPECT_EQ(completions.back(), 0) << "a dropped completion never fires";
  for (int i = 0; i + 1 < n; ++i) {
    EXPECT_EQ(completions[static_cast<size_t>(i)], 1) << "request " << i;
  }
  EXPECT_EQ(ssd.stats().cancelled_requests(), 1u);
  EXPECT_EQ(ssd.stats().outstanding(), 0);
  EXPECT_FALSE(ssd.Cancel(ids.front())) << "already completed";
}

TEST(DeviceCancelTest, HddDropsOnlyQueuedCommands) {
  sim::Simulator sim;
  HddDevice hdd(sim, HddGeometry::Commodity7200());
  int completions[2] = {0, 0};
  const uint64_t in_service =
      hdd.Submit(IoRequest{IoRequest::Kind::kRead, 0, 4096},
                 [&](const IoResult&) { ++completions[0]; });
  const uint64_t queued =
      hdd.Submit(IoRequest{IoRequest::Kind::kRead, 1 << 20, 4096},
                 [&](const IoResult&) { ++completions[1]; });
  EXPECT_FALSE(hdd.Cancel(in_service));
  EXPECT_TRUE(hdd.Cancel(queued));
  sim.Run();
  EXPECT_EQ(completions[0], 1);
  EXPECT_EQ(completions[1], 0);
  EXPECT_EQ(hdd.stats().cancelled_requests(), 1u);
  EXPECT_EQ(hdd.stats().outstanding(), 0);
}

TEST(DeviceCancelTest, RaidRequestsAreBeyondRecallOnceSubmitted) {
  sim::Simulator sim;
  RaidDevice raid(sim, 4, HddGeometry::Enterprise15000(), 64 * 1024);
  constexpr int kRequests = 8;
  int completions = 0;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kRequests; ++i) {
    ids.push_back(raid.Submit(
        IoRequest{IoRequest::Kind::kRead,
                  static_cast<uint64_t>(i) * 3 * 64 * 1024, 64 * 1024},
        [&](const IoResult&) { ++completions; }));
  }
  for (uint64_t id : ids) EXPECT_FALSE(raid.Cancel(id));
  sim.Run();
  EXPECT_EQ(completions, kRequests);
  EXPECT_EQ(raid.stats().cancelled_requests(), 0u);
  EXPECT_EQ(raid.stats().outstanding(), 0);
}

// Teardown: a device destroyed mid-flight, then its simulator, frees every
// request it accepted without firing any completion.

/// Counts its live copies, so a completion capturing one shows whether
/// teardown destroyed it.
struct LiveCount {
  static inline int live = 0;
  LiveCount() { ++live; }
  LiveCount(const LiveCount&) { ++live; }
  LiveCount(LiveCount&&) noexcept { ++live; }
  ~LiveCount() { --live; }
};

/// Submits more scattered 4 KiB reads than the device services at once,
/// runs to `until_us`, then destroys the device and then the simulator.
template <typename MakeDevice>
void ExpectTeardownFreesRequestsInFlight(MakeDevice make_device,
                                         double until_us) {
  constexpr int kReads = 40;
  const int live_at_start = LiveCount::live;
  int fired = 0;
  int fired_before_teardown = 0;
  {
    sim::Simulator sim;
    std::unique_ptr<Device> device = make_device(sim);
    const uint64_t pages = device->capacity_bytes() / 4096;
    for (int i = 0; i < kReads; ++i) {
      const uint64_t page = (static_cast<uint64_t>(i) * 7919 + 13) % pages;
      device->Submit(IoRequest{IoRequest::Kind::kRead, page * 4096, 4096},
                     [&fired, count = LiveCount{}](const IoResult&) {
                       ++fired;
                     });
    }
    EXPECT_EQ(LiveCount::live - live_at_start, kReads);
    sim.RunUntil(until_us);
    EXPECT_GT(fired, 0) << "ran part-way";
    EXPECT_LT(fired, kReads) << "ran part-way";
    EXPECT_EQ(LiveCount::live - live_at_start, kReads - fired);
    fired_before_teardown = fired;
    device.reset();
  }
  EXPECT_EQ(fired, fired_before_teardown) << "a completion fired at teardown";
  EXPECT_EQ(LiveCount::live - live_at_start, 0)
      << "a completion outlived its device";
}

TEST(DeviceTeardownTest, SsdFreesAdmittedAndQueuedCommands) {
  // At 300 us the first NCQ wave has completed and the commands admitted
  // behind it are still with the flash units and the bus.
  ExpectTeardownFreesRequestsInFlight(
      [](sim::Simulator& sim) {
        return std::make_unique<SsdDevice>(sim, SsdGeometry::ConsumerPcie());
      },
      300.0);
}

TEST(DeviceTeardownTest, HddFreesQueuedAndInServiceCommands) {
  ExpectTeardownFreesRequestsInFlight(
      [](sim::Simulator& sim) {
        return std::make_unique<HddDevice>(sim, HddGeometry::Commodity7200());
      },
      10'000.0);
}

TEST(DeviceTeardownTest, RaidFreesRequestsFannedOutToMembers) {
  ExpectTeardownFreesRequestsInFlight(
      [](sim::Simulator& sim) {
        return std::make_unique<RaidDevice>(
            sim, 4, HddGeometry::Enterprise15000(), 64 * 1024);
      },
      5'000.0);
}

TEST(DeviceStatsTest, LatencyAndQueueDepthAccounting) {
  sim::Simulator sim;
  SsdDevice ssd(sim, SsdGeometry::ConsumerPcie());
  sim::Latch done(sim, 4);
  for (int i = 0; i < 4; ++i) {
    ssd.Submit(IoRequest{IoRequest::Kind::kRead,
                         static_cast<uint64_t>(i) * (8 << 20), 4096},
               [&](const IoResult&) { done.CountDown(); });
  }
  sim.Run();
  EXPECT_TRUE(done.done());
  const auto& stats = ssd.stats();
  EXPECT_EQ(stats.latency_us().count(), 4);
  EXPECT_GT(stats.latency_us().mean(), 0.0);
  EXPECT_EQ(stats.outstanding(), 0);
  EXPECT_GT(stats.AverageQueueDepth(sim.Now()), 1.0);
  EXPECT_LE(stats.AverageQueueDepth(sim.Now()), 4.0);
}

TEST(DeviceTraceTest, SinkReceivesExactlySubmittedRequests) {
  sim::Simulator sim;
  SsdDevice ssd(sim, SsdGeometry::ConsumerPcie());
  std::vector<TraceEntry> trace;
  ssd.set_trace_sink(&trace);
  ssd.Submit(IoRequest{IoRequest::Kind::kRead, 4096, 8192},
             [](const IoResult&) {});
  ssd.Submit(IoRequest{IoRequest::Kind::kWrite, 0, 4096},
             [](const IoResult&) {});
  sim.Run();
  ssd.set_trace_sink(nullptr);
  ssd.Submit(IoRequest{IoRequest::Kind::kRead, 0, 4096},
             [](const IoResult&) {});  // untraced
  sim.Run();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].offset, 4096u);
  EXPECT_EQ(trace[0].length, 8192u);
  EXPECT_EQ(trace[0].kind, IoRequest::Kind::kRead);
  EXPECT_EQ(trace[1].kind, IoRequest::Kind::kWrite);
}

TEST(DeviceValidationTest, MalformedRequestsCompleteWithOutOfRange) {
  // Satellite: malformed I/O is an asynchronous kOutOfRange completion, not
  // a process abort — upper layers handle it through the same Status path
  // as any other failure.
  sim::Simulator sim;
  SsdDevice ssd(sim, SsdGeometry::ConsumerPcie());

  Status beyond = Status::OK();
  ssd.Submit(IoRequest{IoRequest::Kind::kRead, ssd.capacity_bytes(), 4096},
             [&](const IoResult& r) { beyond = r.status; });
  Status overhang = Status::OK();
  ssd.Submit(
      IoRequest{IoRequest::Kind::kRead, ssd.capacity_bytes() - 2048, 4096},
      [&](const IoResult& r) { overhang = r.status; });
  Status zero_len = Status::OK();
  ssd.Submit(IoRequest{IoRequest::Kind::kRead, 0, 0},
             [&](const IoResult& r) { zero_len = r.status; });
  sim.Run();

  EXPECT_EQ(beyond.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(overhang.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(zero_len.code(), StatusCode::kOutOfRange);
  // Every rejection is an errored completion: submit/complete stay paired
  // (outstanding drains to zero) and no data bytes are counted.
  EXPECT_EQ(ssd.stats().errors(), 3u);
  EXPECT_EQ(ssd.stats().outstanding(), 0);
  EXPECT_EQ(ssd.stats().ThroughputMbps(), 0.0);
}

TEST(DeviceValidationTest, RejectionIsAsynchronous) {
  // The completion fires from the simulator, not inline from Submit — the
  // caller can rely on Submit never re-entering its own completion.
  sim::Simulator sim;
  SsdDevice ssd(sim, SsdGeometry::ConsumerPcie());
  bool completed = false;
  ssd.Submit(IoRequest{IoRequest::Kind::kRead, 0, 0},
             [&](const IoResult&) { completed = true; });
  EXPECT_FALSE(completed);
  sim.Run();
  EXPECT_TRUE(completed);
}

}  // namespace
}  // namespace pioqo::io
