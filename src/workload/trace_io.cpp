#include "workload/trace_io.hpp"

#include <cstring>
#include <stdexcept>

namespace delta::workload {
namespace {

struct Header {
  char magic[8];
  std::uint32_t version;
  std::uint32_t reserved;
};
static_assert(sizeof(Header) == 16);

}  // namespace

TraceWriter::TraceWriter(const std::string& path) {
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) throw std::runtime_error("cannot open trace for writing: " + path);
  Header h{};
  std::memcpy(h.magic, kTraceMagic, sizeof h.magic);
  h.version = kTraceVersion;
  if (std::fwrite(&h, sizeof h, 1, f_) != 1) {
    std::fclose(f_);
    throw std::runtime_error("cannot write trace header: " + path);
  }
}

// A destructor must not throw: a trace that is to be trusted is closed with
// close(), which reports a failed flush.
TraceWriter::~TraceWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

void TraceWriter::append(BlockAddr block) {
  if (std::fwrite(&block, sizeof block, 1, f_) != 1)
    throw std::runtime_error("trace write failed");
  ++count_;
}

void TraceWriter::close() {
  if (f_ == nullptr) return;
  // Buffered appends reach the file only here, so a full disk shows up in
  // the flush or the close, not in append().
  const bool flushed = std::fflush(f_) == 0;
  const bool closed = std::fclose(f_) == 0;
  f_ = nullptr;
  if (!flushed || !closed) throw std::runtime_error("trace write failed on close");
}

TraceReader::TraceReader(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot open trace: " + path);
  Header h{};
  if (std::fread(&h, sizeof h, 1, f) != 1 ||
      std::memcmp(h.magic, kTraceMagic, sizeof h.magic) != 0) {
    std::fclose(f);
    throw std::runtime_error("not a DELTA trace file: " + path);
  }
  if (h.version != kTraceVersion) {
    std::fclose(f);
    throw std::runtime_error("unsupported trace version in " + path);
  }
  BlockAddr b;
  std::size_t got = 0;
  while ((got = std::fread(&b, 1, sizeof b, f)) == sizeof b) blocks_.push_back(b);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) throw std::runtime_error("cannot read trace: " + path);
  // A payload that is not a whole number of records lost its tail.
  if (got != 0) throw std::runtime_error("truncated trace: " + path);
  if (blocks_.empty()) throw std::runtime_error("empty trace: " + path);
}

}  // namespace delta::workload
