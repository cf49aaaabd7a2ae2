#include "src/common/binary_io.h"

namespace inferturbo {

Status BinaryReader::GetString(std::string* out) {
  std::uint64_t size = 0;
  INFERTURBO_RETURN_NOT_OK(GetLength(&size, 1));
  out->assign(data_.data() + pos_, static_cast<std::size_t>(size));
  pos_ += static_cast<std::size_t>(size);
  return Status::OK();
}

Status BinaryReader::GetFloats(std::vector<float>* out) {
  std::uint64_t count = 0;
  INFERTURBO_RETURN_NOT_OK(GetLength(&count, sizeof(float)));
  out->resize(static_cast<std::size_t>(count));
  return GetBytes(out->data(), static_cast<std::size_t>(count) *
                                   sizeof(float));
}

Status BinaryReader::GetI64s(std::vector<std::int64_t>* out) {
  std::uint64_t count = 0;
  INFERTURBO_RETURN_NOT_OK(GetLength(&count, sizeof(std::int64_t)));
  out->resize(static_cast<std::size_t>(count));
  return GetBytes(out->data(), static_cast<std::size_t>(count) *
                                   sizeof(std::int64_t));
}

}  // namespace inferturbo
