#include "trace/mapped_trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include <gtest/gtest.h>

#include "testing/trace_v1_fixture.h"
#include "trace/trace_io.h"

namespace cascache::trace {
namespace {

class MappedTraceTest : public ::testing::Test {
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

  std::string WriteSmallV2(const std::string& name) {
    const std::string path = TempPath(name);
    CASCACHE_CHECK_OK(WriteTrace(SmallWorkload(), path));
    return path;
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  static void Spit(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
};

TEST_F(MappedTraceTest, MapMatchesBulkReadExactly) {
  const Workload original = SmallWorkload();
  const std::string path = TempPath("mapped.cctr");
  ASSERT_TRUE(WriteTrace(original, path).ok());

  auto mapped_or = MappedTrace::Open(path);
  ASSERT_TRUE(mapped_or.ok()) << mapped_or.status();
  const MappedTrace& mapped = **mapped_or;
  EXPECT_EQ(mapped.version(), kTraceVersion2);

  ASSERT_EQ(mapped.num_requests(), original.requests.size());
  ASSERT_EQ(mapped.catalog().num_objects(), original.catalog.num_objects());
  EXPECT_EQ(mapped.catalog().total_bytes(), original.catalog.total_bytes());
  for (ObjectId id = 0; id < original.catalog.num_objects(); ++id) {
    ASSERT_EQ(mapped.catalog().size(id), original.catalog.size(id));
    ASSERT_EQ(mapped.catalog().server(id), original.catalog.server(id));
  }
  const RequestSpan span = mapped.requests();
  ASSERT_EQ(span.size(), original.requests.size());
  EXPECT_EQ(std::memcmp(span.data(), original.requests.data(),
                        span.size() * sizeof(Request)),
            0)
      << "mapped request region must be bit-identical to the in-RAM load";
  // The mapping is page-aligned by the v2 format contract.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(span.data()) % alignof(Request), 0u);
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, ViewIsSeekable) {
  const std::string path = WriteSmallV2("seekable.cctr");
  auto mapped_or = MappedTrace::Open(path);
  ASSERT_TRUE(mapped_or.ok());
  const RequestSpan all = (*mapped_or)->requests();
  // Subspans address warm-up/measure splits without copying.
  const RequestSpan warmup = all.subspan(0, all.size() / 2);
  const RequestSpan measure = all.subspan(all.size() / 2);
  EXPECT_EQ(warmup.size() + measure.size(), all.size());
  EXPECT_EQ(warmup.data() + warmup.size(), measure.data());
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, RejectsMissingFile) {
  auto mapped_or = MappedTrace::Open(TempPath("nope.cctr"));
  EXPECT_FALSE(mapped_or.ok());
  EXPECT_EQ(mapped_or.status().code(), util::StatusCode::kIoError);
}

TEST_F(MappedTraceTest, OpensV1IntoOwnedRecords) {
  auto original_or = GenerateWorkload(testing::V1FixtureParams());
  ASSERT_TRUE(original_or.ok()) << original_or.status();
  const Workload& original = *original_or;
  auto mapped_or = MappedTrace::Open(testing::V1FixturePath());
  ASSERT_TRUE(mapped_or.ok()) << mapped_or.status();
  MappedTrace& mapped = **mapped_or;
  EXPECT_EQ(mapped.version(), kTraceVersion1);
  EXPECT_TRUE(mapped.Validate().ok());

  ASSERT_EQ(mapped.catalog().num_objects(), original.catalog.num_objects());
  ASSERT_EQ(mapped.catalog().num_servers(), original.catalog.num_servers());
  for (ObjectId id = 0; id < original.catalog.num_objects(); ++id) {
    EXPECT_EQ(mapped.catalog().size(id), original.catalog.size(id));
    EXPECT_EQ(mapped.catalog().server(id), original.catalog.server(id));
  }
  // The v1 region is unaligned in the file; the records are an aligned
  // copy, and releasing them is a no-op that keeps them readable.
  mapped.ReleaseUpTo(mapped.num_requests());
  const RequestSpan span = mapped.requests();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(span.data()) % alignof(Request), 0u);
  ASSERT_EQ(span.size(), original.requests.size());
  EXPECT_EQ(std::memcmp(span.data(), original.requests.data(),
                        span.size() * sizeof(Request)),
            0);
}

TEST_F(MappedTraceTest, RejectsBadMagic) {
  const std::string path = TempPath("badmagic.cctr");
  Spit(path, "NOPE this is not a trace file, but it is long enough to map");
  auto mapped_or = MappedTrace::Open(path);
  ASSERT_FALSE(mapped_or.ok());
  EXPECT_NE(mapped_or.status().message().find("bad magic"),
            std::string::npos)
      << mapped_or.status();
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, RejectsShortMapping) {
  const std::string path = WriteSmallV2("short.cctr");
  const std::string bytes = Slurp(path);
  // Keep the header+catalog but cut the request region short: the file
  // is now shorter than the header's num_requests claims.
  Spit(path, bytes.substr(0, bytes.size() - 4096));
  auto mapped_or = MappedTrace::Open(path);
  ASSERT_FALSE(mapped_or.ok());
  EXPECT_NE(mapped_or.status().message().find("shorter than its header"),
            std::string::npos)
      << mapped_or.status();
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, RejectsOverflowingRequestCount) {
  const std::string path = WriteSmallV2("overflow.cctr");
  std::string bytes = Slurp(path);
  // 2^60 records of 16 bytes wrap a 64-bit byte count to 0, which must
  // not pass for "the file is long enough".
  const uint64_t huge_count = uint64_t{1} << 60;
  std::memcpy(bytes.data() + 16, &huge_count, sizeof(huge_count));
  Spit(path, bytes);
  auto mapped_or = MappedTrace::Open(path);
  ASSERT_FALSE(mapped_or.ok());
  EXPECT_EQ(mapped_or.status().code(), util::StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, RejectsTruncatedHeader) {
  const std::string path = WriteSmallV2("hdr.cctr");
  const std::string bytes = Slurp(path);
  Spit(path, bytes.substr(0, 10));
  EXPECT_FALSE(MappedTrace::Open(path).ok());
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, RejectsUnalignedRequestOffset) {
  const std::string path = WriteSmallV2("unaligned.cctr");
  std::string bytes = Slurp(path);
  // Corrupt request_offset (byte 24) to a non-page-aligned value.
  uint64_t bogus_offset = 4097;
  std::memcpy(bytes.data() + 24, &bogus_offset, sizeof(bogus_offset));
  Spit(path, bytes);
  auto mapped_or = MappedTrace::Open(path);
  ASSERT_FALSE(mapped_or.ok());
  EXPECT_EQ(mapped_or.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, RejectsCorruptCatalog) {
  const std::string path = WriteSmallV2("cat.cctr");
  std::string bytes = Slurp(path);
  // Zero out the first catalog entry's size (byte 32): invalid object.
  uint64_t zero = 0;
  std::memcpy(bytes.data() + 32, &zero, sizeof(zero));
  Spit(path, bytes);
  EXPECT_FALSE(MappedTrace::Open(path).ok());
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, ValidateAcceptsGoodAndRejectsCorruptRecords) {
  const std::string path = WriteSmallV2("validate.cctr");
  {
    auto mapped_or = MappedTrace::Open(path);
    ASSERT_TRUE(mapped_or.ok());
    EXPECT_TRUE((*mapped_or)->Validate().ok());
  }
  // Corrupt one record's object id past the catalog, out in the request
  // region where header/catalog validation cannot see it.
  std::string bytes = Slurp(path);
  uint64_t request_offset = 0;
  std::memcpy(&request_offset, bytes.data() + 24, sizeof(request_offset));
  const size_t victim = request_offset + 100 * sizeof(Request) +
                        offsetof(Request, object);
  uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + victim, &huge, sizeof(huge));
  Spit(path, bytes);
  {
    auto mapped_or = MappedTrace::Open(path);
    ASSERT_TRUE(mapped_or.ok()) << "corruption is past the eager checks";
    const util::Status status = (*mapped_or)->Validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, ReleaseUpToKeepsDataReadable) {
  const std::string path = WriteSmallV2("release.cctr");
  const Workload original = SmallWorkload();
  auto mapped_or = MappedTrace::Open(path);
  ASSERT_TRUE(mapped_or.ok());
  MappedTrace& mapped = **mapped_or;

  // Releases are advisory (MADV_DONTNEED on a file-backed private
  // mapping): the data must still read back correctly afterwards, at
  // any index, including repeated and out-of-order release points.
  mapped.ReleaseUpTo(mapped.num_requests() / 2);
  mapped.ReleaseUpTo(mapped.num_requests() / 4);  // no-op, below high water
  mapped.ReleaseUpTo(mapped.num_requests());
  const RequestSpan span = mapped.requests();
  ASSERT_EQ(span.size(), original.requests.size());
  EXPECT_EQ(std::memcmp(span.data(), original.requests.data(),
                        span.size() * sizeof(Request)),
            0);
  std::remove(path.c_str());
}

TEST_F(MappedTraceTest, StreamingViewReplaysIdentically) {
  const std::string path = WriteSmallV2("streamview.cctr");
  auto mapped_or = MappedTrace::Open(path);
  ASSERT_TRUE(mapped_or.ok());
  MappedTrace& mapped = **mapped_or;

  WorkloadView view = mapped.StreamingView();
  ASSERT_NE(view.catalog, nullptr);
  ASSERT_TRUE(static_cast<bool>(view.on_consumed));
  // Drive the consumption hook the way the chunked replay does.
  const size_t n = view.requests.size();
  view.on_consumed(n / 3);
  view.on_consumed(2 * n / 3);
  view.on_consumed(n);
  const Workload original = SmallWorkload();
  EXPECT_EQ(std::memcmp(view.requests.data(), original.requests.data(),
                        n * sizeof(Request)),
            0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cascache::trace
