#include "src/common/atomic_file.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace inferturbo {
namespace {

/// Unique-enough temp suffix: concurrent writers (pool workers spilling
/// different blocks) must not collide on the temp name.
std::string TempPathFor(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  std::ostringstream out;
  out << path << ".tmp." << counter.fetch_add(1);
  return out.str();
}

/// Applies a silent-corruption fault to `data` in place.
void CorruptInPlace(IoFaultKind kind, std::string* data) {
  if (data->empty()) return;
  if (kind == IoFaultKind::kBitFlip) {
    // Flip one bit in the middle of the payload.
    (*data)[data->size() / 2] ^= 0x10;
  } else if (kind == IoFaultKind::kShortRead) {
    data->resize(data->size() - (data->size() + 1) / 2);
  }
}

Status WriteOnce(const std::string& path, std::string_view data,
                 IoFaultInjector* injector) {
  const IoFaultKind fault =
      injector != nullptr ? injector->Tick(IoOp::kWrite, path)
                          : IoFaultKind::kNone;
  if (fault == IoFaultKind::kWriteFail) {
    return Status::IoError("injected write failure for " + path);
  }
  if (fault == IoFaultKind::kNoSpace) {
    return Status::IoError("no space left on device (injected) for " + path);
  }
  // Only a corrupting fault needs its own copy of the payload.
  std::string corrupted;
  if (fault == IoFaultKind::kBitFlip || fault == IoFaultKind::kShortRead) {
    // Torn/corrupted write: the bytes land "successfully" but wrong.
    corrupted.assign(data);
    CorruptInPlace(fault, &corrupted);
    data = corrupted;
  }

  const std::string tmp = TempPathFor(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open temp file " + tmp);
    }
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return Status::IoError("write failed for " + tmp);
    }
  }
  // std::ofstream cannot fsync; closing flushes to the OS, and the
  // rename below is the atomicity point. (A production build would
  // fsync the fd and the directory here.)
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed for " + path);
  }
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view data,
                       IoFaultInjector* injector, const IoRetryPolicy& retry,
                       std::int64_t* retries_performed) {
  return RetryWithBackoff(
      retry, [&] { return WriteOnce(path, data, injector); },
      retries_performed);
}

Result<std::string> ReadFileToString(const std::string& path,
                                     IoFaultInjector* injector) {
  const IoFaultKind fault =
      injector != nullptr ? injector->Tick(IoOp::kRead, path)
                          : IoFaultKind::kNone;
  if (fault == IoFaultKind::kWriteFail || fault == IoFaultKind::kNoSpace) {
    return Status::IoError("injected read failure for " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("read failed for " + path);
  }
  std::string data = std::move(buffer).str();
  if (fault == IoFaultKind::kBitFlip || fault == IoFaultKind::kShortRead) {
    CorruptInPlace(fault, &data);
  }
  return data;
}

}  // namespace inferturbo
