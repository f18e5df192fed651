#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "workload/generator.hpp"
#include "workload/spec.hpp"
#include "workload/trace_io.hpp"

namespace delta::workload {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TraceIo, RoundTrip) {
  const std::string path = temp_path("roundtrip.dlt");
  {
    TraceWriter w(path);
    for (BlockAddr b = 100; b < 200; ++b) w.append(b);
    EXPECT_EQ(w.written(), 100u);
  }
  TraceReader r(path);
  EXPECT_EQ(r.size(), 100u);
  for (BlockAddr b = 100; b < 200; ++b) EXPECT_EQ(r.next(), b);
  std::remove(path.c_str());
}

TEST(TraceIo, WrapsAround) {
  const std::string path = temp_path("wrap.dlt");
  {
    TraceWriter w(path);
    w.append(7);
    w.append(8);
  }
  TraceReader r(path);
  EXPECT_EQ(r.next(), 7u);
  EXPECT_EQ(r.next(), 8u);
  EXPECT_EQ(r.next(), 7u);
  EXPECT_EQ(r.delivered(), 3u);
  std::remove(path.c_str());
}

TEST(TraceIo, RecordGeneratorStream) {
  const std::string path = temp_path("gen.dlt");
  const AppProfile& p = spec_profile("hm");
  TraceGen gen(p, 0, 42);
  record_trace(path, [&] { return gen.next(); }, 5000);

  TraceGen gen2(p, 0, 42);
  TraceReader r(path);
  ASSERT_EQ(r.size(), 5000u);
  for (int i = 0; i < 5000; ++i) EXPECT_EQ(r.next(), gen2.next());
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingFile) {
  EXPECT_THROW(TraceReader(temp_path("nonexistent.dlt")), std::runtime_error);
}

TEST(TraceIo, RejectsCorruptHeader) {
  const std::string path = temp_path("corrupt.dlt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("NOTATRACE_______", 16, 1, f);
  std::uint64_t x = 1;
  std::fwrite(&x, sizeof x, 1, f);
  std::fclose(f);
  EXPECT_THROW(TraceReader{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsEmptyTrace) {
  const std::string path = temp_path("empty.dlt");
  { TraceWriter w(path); }
  EXPECT_THROW(TraceReader{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsTrailingPartialRecord) {
  const std::string path = temp_path("partial.dlt");
  {
    TraceWriter w(path);
    w.append(7);
    w.append(8);
  }
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite("xyz", 3, 1, f);
  std::fclose(f);
  try {
    TraceReader r(path);
    ADD_FAILURE() << "a trace with 3 stray bytes was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated trace"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(TraceIo, CloseReportsAFullDisk) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  TraceGen gen(spec_profile("hm"), 0, 42);
  EXPECT_THROW(record_trace("/dev/full", [&] { return gen.next(); }, 10),
               std::runtime_error);
}

}  // namespace
}  // namespace delta::workload
