#include "trace/trace_io.h"

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <gtest/gtest.h>

#include "testing/trace_v1_fixture.h"

namespace cascache::trace {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  Workload SmallWorkload() {
    WorkloadParams params;
    params.num_objects = 100;
    params.num_requests = 5000;
    params.num_clients = 20;
    params.num_servers = 5;
    params.seed = 3;
    auto workload_or = GenerateWorkload(params);
    CASCACHE_CHECK_OK(workload_or.status());
    return std::move(workload_or).value();
  }
};

TEST_F(TraceIoTest, RoundTripPreservesEverything) {
  const Workload original = SmallWorkload();
  const std::string path = TempPath("roundtrip.cctr");
  ASSERT_TRUE(WriteTrace(original, path).ok());

  auto read_or = ReadTrace(path);
  ASSERT_TRUE(read_or.ok()) << read_or.status();
  const Workload& read = *read_or;

  ASSERT_EQ(read.catalog.num_objects(), original.catalog.num_objects());
  for (ObjectId id = 0; id < original.catalog.num_objects(); ++id) {
    EXPECT_EQ(read.catalog.size(id), original.catalog.size(id));
    EXPECT_EQ(read.catalog.server(id), original.catalog.server(id));
  }
  ASSERT_EQ(read.requests.size(), original.requests.size());
  for (size_t i = 0; i < original.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(read.requests[i].time, original.requests[i].time);
    EXPECT_EQ(read.requests[i].client, original.requests[i].client);
    EXPECT_EQ(read.requests[i].object, original.requests[i].object);
  }
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, ReadMissingFileFails) {
  auto read_or = ReadTrace(TempPath("does_not_exist.cctr"));
  EXPECT_FALSE(read_or.ok());
  EXPECT_EQ(read_or.status().code(), util::StatusCode::kIoError);
}

TEST_F(TraceIoTest, ReadRejectsBadMagic) {
  const std::string path = TempPath("badmagic.cctr");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE and some garbage";
  }
  auto read_or = ReadTrace(path);
  EXPECT_FALSE(read_or.ok());
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, ReadRejectsTruncatedFile) {
  const Workload original = SmallWorkload();
  const std::string path = TempPath("truncated.cctr");
  ASSERT_TRUE(WriteTrace(original, path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Cut to half, and cut mid-way through the last record.
  for (const size_t keep : {bytes.size() / 2, bytes.size() - 7}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    auto read_or = ReadTrace(path);
    ASSERT_FALSE(read_or.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(read_or.status().code(), util::StatusCode::kIoError);
  }
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, CsvExportHasHeaderAndRows) {
  const Workload original = SmallWorkload();
  const std::string path = TempPath("trace.csv");
  ASSERT_TRUE(WriteTraceCsv(original, path).ok());
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_EQ(header, "time,client,object,size,server");
  size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, original.requests.size());
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, StatsAreConsistent) {
  const Workload workload = SmallWorkload();
  const TraceStats stats = ComputeTraceStats(workload);
  EXPECT_EQ(stats.num_requests, workload.requests.size());
  EXPECT_EQ(stats.num_objects, workload.catalog.num_objects());
  EXPECT_LE(stats.num_objects_referenced, stats.num_objects);
  EXPECT_GT(stats.num_objects_referenced, 0u);
  EXPECT_LE(stats.num_clients_active, 20u);
  EXPECT_GT(stats.total_bytes_requested, 0u);
  EXPECT_GT(stats.estimated_zipf_theta, 0.3);
  EXPECT_GT(stats.top10pct_request_share, 0.2);
  EXPECT_LE(stats.top10pct_request_share, 1.0);
  EXPECT_DOUBLE_EQ(stats.duration_seconds, workload.Duration());
}

TEST_F(TraceIoTest, WritesVersion2WithAlignedRequestRegion) {
  const Workload original = SmallWorkload();
  const std::string path = TempPath("v2_layout.cctr");
  ASSERT_TRUE(WriteTrace(original, path).ok());

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GE(bytes.size(), kTraceV2HeaderBytes);
  EXPECT_EQ(bytes.substr(0, 4), "CCTR");
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  EXPECT_EQ(version, kTraceVersion2);
  uint64_t request_offset = 0;
  std::memcpy(&request_offset, bytes.data() + 24, sizeof(request_offset));
  EXPECT_EQ(request_offset % kTraceRequestAlign, 0u);
  EXPECT_EQ(bytes.size(),
            request_offset + original.requests.size() * sizeof(Request));
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, V1TraceStillReadable) {
  auto original_or = GenerateWorkload(testing::V1FixtureParams());
  ASSERT_TRUE(original_or.ok());
  const Workload& original = *original_or;
  const std::string path = testing::V1FixturePath();

  auto read_or = ReadTrace(path);
  ASSERT_TRUE(read_or.ok()) << read_or.status();
  ASSERT_EQ(read_or->requests.size(), original.requests.size());
  ASSERT_EQ(read_or->catalog.num_objects(), original.catalog.num_objects());
  ASSERT_EQ(read_or->catalog.num_servers(), original.catalog.num_servers());
  for (ObjectId id = 0; id < original.catalog.num_objects(); ++id) {
    EXPECT_EQ(read_or->catalog.size(id), original.catalog.size(id));
    EXPECT_EQ(read_or->catalog.server(id), original.catalog.server(id));
  }
  for (size_t i = 0; i < original.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(read_or->requests[i].time, original.requests[i].time);
    EXPECT_EQ(read_or->requests[i].client, original.requests[i].client);
    EXPECT_EQ(read_or->requests[i].object, original.requests[i].object);
  }
}

TEST_F(TraceIoTest, TraceWriterPatchesRequestCount) {
  const Workload original = SmallWorkload();
  const std::string path = TempPath("patched.cctr");
  {
    // Declare a wrong expected count; Close() must fix the header.
    auto writer_or = TraceWriter::Create(path, original.catalog,
                                         /*expected_requests=*/9999999);
    ASSERT_TRUE(writer_or.ok()) << writer_or.status();
    TraceWriter& writer = **writer_or;
    ASSERT_TRUE(
        writer.Append(original.requests.data(), original.requests.size())
            .ok());
    EXPECT_EQ(writer.requests_written(), original.requests.size());
    ASSERT_TRUE(writer.Close().ok());
    EXPECT_TRUE(writer.Close().ok()) << "Close must be idempotent";
  }
  auto read_or = ReadTrace(path);
  ASSERT_TRUE(read_or.ok()) << read_or.status();
  EXPECT_EQ(read_or->requests.size(), original.requests.size());
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, TraceWriterRejectsBadRecords) {
  const Workload original = SmallWorkload();
  const std::string path = TempPath("writer_reject.cctr");
  auto writer_or = TraceWriter::Create(path, original.catalog);
  ASSERT_TRUE(writer_or.ok());
  TraceWriter& writer = **writer_or;

  Request out_of_range{0.0, 0, original.catalog.num_objects()};
  EXPECT_FALSE(writer.Append(out_of_range).ok());

  ASSERT_TRUE(writer.Append(Request{5.0, 0, 0}).ok());
  Request backwards{4.0, 0, 0};
  EXPECT_FALSE(writer.Append(backwards).ok()) << "time must be monotone";
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, StreamingGenerationMatchesInMemory) {
  WorkloadParams params;
  params.num_objects = 300;
  params.num_requests = 20000;
  params.num_clients = 40;
  params.num_servers = 8;
  params.seed = 11;
  params.temporal_locality = 0.3;
  params.model.drift_mode = DriftMode::kShuffle;
  params.model.drift_half_life_s = 600.0;

  auto in_ram_or = GenerateWorkload(params);
  ASSERT_TRUE(in_ram_or.ok());
  const Workload& in_ram = *in_ram_or;

  const std::string path = TempPath("streamed.cctr");
  ASSERT_TRUE(GenerateWorkloadToFile(params, path).ok());
  auto streamed_or = ReadTrace(path);
  ASSERT_TRUE(streamed_or.ok()) << streamed_or.status();
  const Workload& streamed = *streamed_or;

  ASSERT_EQ(streamed.catalog.num_objects(), in_ram.catalog.num_objects());
  for (ObjectId id = 0; id < in_ram.catalog.num_objects(); ++id) {
    ASSERT_EQ(streamed.catalog.size(id), in_ram.catalog.size(id));
    ASSERT_EQ(streamed.catalog.server(id), in_ram.catalog.server(id));
  }
  ASSERT_EQ(streamed.requests.size(), in_ram.requests.size());
  for (size_t i = 0; i < in_ram.requests.size(); ++i) {
    ASSERT_EQ(std::memcmp(&streamed.requests[i], &in_ram.requests[i],
                          sizeof(Request)),
              0)
        << "record " << i << " differs: streaming generation must be "
        << "bit-identical to GenerateWorkload";
  }
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, CsvConvertRoundTrip) {
  const Workload original = SmallWorkload();
  const std::string csv = TempPath("convert_in.csv");
  const std::string cctr = TempPath("convert_out.cctr");
  ASSERT_TRUE(WriteTraceCsv(original, csv).ok());
  ASSERT_TRUE(ConvertCsvTrace(csv, cctr).ok());

  auto read_or = ReadTrace(cctr);
  ASSERT_TRUE(read_or.ok()) << read_or.status();
  const Workload& converted = *read_or;
  ASSERT_EQ(converted.requests.size(), original.requests.size());
  // Only referenced objects survive conversion (dense renumbering), and
  // each request must keep its client and its object's size/server.
  const TraceStats stats = ComputeTraceStats(original);
  EXPECT_EQ(converted.catalog.num_objects(), stats.num_objects_referenced);
  for (size_t i = 0; i < original.requests.size(); ++i) {
    EXPECT_EQ(converted.requests[i].client, original.requests[i].client);
    EXPECT_EQ(converted.catalog.size(converted.requests[i].object),
              original.catalog.size(original.requests[i].object));
    EXPECT_EQ(converted.catalog.server(converted.requests[i].object),
              original.catalog.server(original.requests[i].object));
  }
  std::remove(csv.c_str());
  std::remove(cctr.c_str());
}

TEST_F(TraceIoTest, CsvConvertRemapsSparseIds) {
  const std::string csv = TempPath("sparse.csv");
  {
    std::ofstream out(csv);
    out << "time,client,object,size,server\n"
        << "0.5,3,900,1000,2\n"
        << "1.0,1,17,500,0\n"
        << "1.5,3,900,1000,2\n";
  }
  const std::string cctr = TempPath("sparse.cctr");
  ASSERT_TRUE(ConvertCsvTrace(csv, cctr).ok());
  auto read_or = ReadTrace(cctr);
  ASSERT_TRUE(read_or.ok()) << read_or.status();
  ASSERT_EQ(read_or->catalog.num_objects(), 2u);
  ASSERT_EQ(read_or->requests.size(), 3u);
  EXPECT_EQ(read_or->requests[0].object, 0u);  // 900 seen first
  EXPECT_EQ(read_or->requests[1].object, 1u);  // then 17
  EXPECT_EQ(read_or->requests[2].object, 0u);
  EXPECT_EQ(read_or->catalog.size(0), 1000u);
  EXPECT_EQ(read_or->catalog.server(0), 2u);
  EXPECT_EQ(read_or->catalog.size(1), 500u);
  std::remove(csv.c_str());
  std::remove(cctr.c_str());
}

TEST_F(TraceIoTest, CsvConvertRejectsConflictsAndGarbage) {
  const std::string cctr = TempPath("bad.cctr");
  {
    const std::string csv = TempPath("conflict.csv");
    std::ofstream(csv) << "0.5,1,7,100,0\n0.6,1,7,200,0\n";
    const util::Status status = ConvertCsvTrace(csv, cctr);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("conflicting size/server"),
              std::string::npos)
        << status;
    std::remove(csv.c_str());
  }
  {
    const std::string csv = TempPath("garbage.csv");
    std::ofstream(csv) << "0.5,1,7,100,0\nnot,a,valid,row,!\n";
    EXPECT_FALSE(ConvertCsvTrace(csv, cctr).ok());
    std::remove(csv.c_str());
  }
  {
    const std::string csv = TempPath("empty.csv");
    std::ofstream(csv) << "time,client,object,size,server\n";
    EXPECT_FALSE(ConvertCsvTrace(csv, cctr).ok());
    std::remove(csv.c_str());
  }
  std::remove(cctr.c_str());
}

TEST_F(TraceIoTest, SummarizeTraceMatchesInMemoryStats) {
  const Workload original = SmallWorkload();
  const std::string path = TempPath("summary.cctr");
  ASSERT_TRUE(WriteTrace(original, path).ok());

  auto summary_or = SummarizeTrace(path);
  ASSERT_TRUE(summary_or.ok()) << summary_or.status();
  const TraceSummary& s = *summary_or;
  const TraceStats expected = ComputeTraceStats(original);

  EXPECT_EQ(s.format_version, kTraceVersion2);
  EXPECT_GT(s.file_bytes, 0u);
  EXPECT_EQ(s.stats.num_requests, expected.num_requests);
  EXPECT_EQ(s.stats.num_objects, expected.num_objects);
  EXPECT_EQ(s.stats.num_objects_referenced, expected.num_objects_referenced);
  EXPECT_EQ(s.stats.num_clients_active, expected.num_clients_active);
  EXPECT_EQ(s.stats.total_bytes_requested, expected.total_bytes_requested);
  EXPECT_DOUBLE_EQ(s.stats.duration_seconds, expected.duration_seconds);
  EXPECT_NEAR(s.stats.estimated_zipf_theta, expected.estimated_zipf_theta,
              1e-9);
  EXPECT_DOUBLE_EQ(s.stats.top10pct_request_share,
                   expected.top10pct_request_share);

  EXPECT_GE(s.size_p90, s.size_p50);
  EXPECT_GE(s.size_p99, s.size_p90);
  EXPECT_GE(s.size_max, s.size_p99);
  EXPECT_GE(s.req_size_p99, s.req_size_p50);
  EXPECT_GT(s.interarrival_mean, 0.0);
  EXPECT_GE(s.interarrival_max, s.interarrival_min);
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, ReadAndSummarizeRejectCorruptRecords) {
  const Workload original = SmallWorkload();
  const std::string path = TempPath("corrupt_record.cctr");
  ASSERT_TRUE(WriteTrace(original, path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  uint64_t request_offset = 0;
  std::memcpy(&request_offset, bytes.data() + 24, sizeof(request_offset));
  const uint32_t past_catalog = original.catalog.num_objects();
  std::memcpy(bytes.data() + request_offset + 100 * sizeof(Request) +
                  offsetof(Request, object),
              &past_catalog, sizeof(past_catalog));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto read_or = ReadTrace(path);
  ASSERT_FALSE(read_or.ok());
  EXPECT_EQ(read_or.status().code(), util::StatusCode::kInvalidArgument);
  auto summary_or = SummarizeTrace(path);
  ASSERT_FALSE(summary_or.ok());
  EXPECT_EQ(summary_or.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, CountsClientsWithoutPerIdState) {
  // Client ids are unbounded in the format: 0xFFFFFFFF must count as one
  // client, not size per-id state by the largest id.
  Workload workload = SmallWorkload();
  for (size_t i = 0; i < workload.requests.size(); ++i) {
    workload.requests[i].client = i % 3 == 0   ? 0u
                                  : i % 3 == 1 ? 7u
                                               : 0xFFFFFFFFu;
  }
  EXPECT_EQ(ComputeTraceStats(workload).num_clients_active, 3u);
  const std::string path = TempPath("huge_client.cctr");
  ASSERT_TRUE(WriteTrace(workload, path).ok());
  auto summary_or = SummarizeTrace(path);
  ASSERT_TRUE(summary_or.ok()) << summary_or.status();
  EXPECT_EQ(summary_or->stats.num_clients_active, 3u);
  std::remove(path.c_str());
}

TEST_F(TraceIoTest, EmptyWorkloadRoundTrip) {
  Workload workload;
  workload.catalog.Add(10, 0);
  const std::string path = TempPath("empty.cctr");
  ASSERT_TRUE(WriteTrace(workload, path).ok());
  auto read_or = ReadTrace(path);
  ASSERT_TRUE(read_or.ok());
  EXPECT_EQ(read_or->requests.size(), 0u);
  EXPECT_EQ(read_or->catalog.num_objects(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cascache::trace
