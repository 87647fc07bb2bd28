#include "ckpt/store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace vaq {
namespace ckpt {

namespace fs = std::filesystem;

bool ValidEntryName(const std::string& name) {
  if (name.empty() || name.size() > 255) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return name != "." && name != "..";
}

namespace {

Status BadName(const std::string& name) {
  return Status::InvalidArgument("bad checkpoint entry name: '" + name + "'");
}

}  // namespace

Status MemStore::Put(const std::string& name, const std::string& bytes) {
  if (!ValidEntryName(name)) return BadName(name);
  entries_[name] = bytes;
  return Status::OK();
}

StatusOr<std::string> MemStore::Get(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no checkpoint entry '" + name + "'");
  }
  return it->second;
}

Status MemStore::Append(const std::string& name, const std::string& bytes) {
  if (!ValidEntryName(name)) return BadName(name);
  entries_[name] += bytes;
  return Status::OK();
}

Status MemStore::Delete(const std::string& name) {
  entries_.erase(name);
  return Status::OK();
}

StatusOr<std::vector<std::string>> MemStore::List() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, bytes] : entries_) names.push_back(name);
  return names;  // std::map iterates sorted.
}

Status DirStore::EnsureDir() const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint dir '" + dir_ +
                           "': " + ec.message());
  }
  return Status::OK();
}

std::string DirStore::PathFor(const std::string& name) const {
  return (fs::path(dir_) / name).string();
}

Status DirStore::Put(const std::string& name, const std::string& bytes) {
  if (!ValidEntryName(name)) return BadName(name);
  VAQ_RETURN_IF_ERROR(EnsureDir());
  // Write-then-rename so a crash mid-Put never leaves a half-written
  // snapshot under its final name (recovery would otherwise have to
  // reject it by checksum; this keeps the common case clean).
  // '#' is not a ValidEntryName character, so leftover temporaries from
  // a crash mid-Put never show up in List().
  const std::string tmp = PathFor("#" + name);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + tmp + "' for write");
  }
  const size_t written = bytes.empty()
                             ? 0
                             : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = written == bytes.size() && std::fclose(f) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to '" + tmp + "'");
  }
  std::error_code ec;
  fs::rename(tmp, PathFor(name), ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename '" + tmp + "': " + ec.message());
  }
  return Status::OK();
}

StatusOr<std::string> DirStore::Get(const std::string& name) const {
  if (!ValidEntryName(name)) return BadName(name);
  std::FILE* f = std::fopen(PathFor(name).c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no checkpoint entry '" + name + "'");
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Status::IoError("read error on checkpoint entry '" + name + "'");
  }
  return bytes;
}

Status DirStore::Append(const std::string& name, const std::string& bytes) {
  if (!ValidEntryName(name)) return BadName(name);
  VAQ_RETURN_IF_ERROR(EnsureDir());
  std::FILE* f = std::fopen(PathFor(name).c_str(), "ab");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + PathFor(name) +
                           "' for append");
  }
  const size_t written = bytes.empty()
                             ? 0
                             : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool ok = written == bytes.size() && std::fclose(f) == 0;
  if (!ok) {
    return Status::IoError("short append to '" + PathFor(name) + "'");
  }
  return Status::OK();
}

Status DirStore::Delete(const std::string& name) {
  if (!ValidEntryName(name)) return BadName(name);
  std::error_code ec;
  fs::remove(PathFor(name), ec);  // Missing file: ec stays clear.
  if (ec) {
    return Status::IoError("cannot delete checkpoint entry '" + name +
                           "': " + ec.message());
  }
  return Status::OK();
}

StatusOr<std::vector<std::string>> DirStore::List() const {
  std::vector<std::string> names;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return names;  // No directory yet: an empty store.
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (ValidEntryName(name)) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status CorruptEntryByte(Store* store, const std::string& name,
                        int64_t byte_index, uint8_t mask) {
  if (mask == 0) {
    return Status::InvalidArgument("corrupt: mask must flip at least one bit");
  }
  VAQ_ASSIGN_OR_RETURN(std::string bytes, store->Get(name));
  if (bytes.empty()) {
    return Status::InvalidArgument("corrupt: entry '" + name + "' is empty");
  }
  const size_t size = bytes.size();
  size_t index = static_cast<size_t>(byte_index) % size;
  bytes[index] = static_cast<char>(static_cast<uint8_t>(bytes[index]) ^ mask);
  return store->Put(name, bytes);
}

}  // namespace ckpt
}  // namespace vaq
