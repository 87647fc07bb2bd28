// Checkpoint stores: named byte blobs with append support.
//
// The durability subsystem needs exactly five operations — Put / Get /
// Append / Delete / List — so `Store` is that, nothing more. `MemStore`
// backs tests and benches; `DirStore` maps entries to files in one flat
// directory for `vaqctl serve --checkpoint-dir`. Entry names are
// restricted to [A-Za-z0-9._-] so a DirStore entry is always a single
// well-formed file name.
//
// Stores are not thread-safe; the serving runtime only touches its store
// from the admission thread (standing-query mode is single-threaded by
// construction, see serve::Server::AdvanceStream).
#ifndef VAQ_CKPT_STORE_H_
#define VAQ_CKPT_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace vaq {
namespace ckpt {

class Store {
 public:
  virtual ~Store() = default;

  // Creates or replaces an entry.
  virtual Status Put(const std::string& name, const std::string& bytes) = 0;
  // kNotFound when the entry does not exist.
  virtual StatusOr<std::string> Get(const std::string& name) const = 0;
  // Appends to an entry, creating it if absent (WAL path).
  virtual Status Append(const std::string& name, const std::string& bytes) = 0;
  // Removing a missing entry is OK (WAL truncation is idempotent).
  virtual Status Delete(const std::string& name) = 0;
  // All entry names, sorted.
  virtual StatusOr<std::vector<std::string>> List() const = 0;
};

// Returns whether `name` is a legal store entry name.
bool ValidEntryName(const std::string& name);

// XORs `mask` into one byte of an existing entry:
// bytes[byte_index mod size] ^= mask. This is the chaos harness's
// media-corruption event — a deterministic, schedule-placed bit flip
// that RecoveryDriver must detect (checksum mismatch) and survive by
// falling back to the retained predecessor snapshot. kInvalidArgument
// when `mask` is zero (a no-op flip would silently weaken the test) or
// the entry is empty; kNotFound when it does not exist.
Status CorruptEntryByte(Store* store, const std::string& name,
                        int64_t byte_index, uint8_t mask);

class MemStore : public Store {
 public:
  Status Put(const std::string& name, const std::string& bytes) override;
  StatusOr<std::string> Get(const std::string& name) const override;
  Status Append(const std::string& name, const std::string& bytes) override;
  Status Delete(const std::string& name) override;
  StatusOr<std::vector<std::string>> List() const override;

 private:
  std::map<std::string, std::string> entries_;
};

// One file per entry under `dir` (created on first use).
class DirStore : public Store {
 public:
  explicit DirStore(std::string dir) : dir_(std::move(dir)) {}

  Status Put(const std::string& name, const std::string& bytes) override;
  StatusOr<std::string> Get(const std::string& name) const override;
  Status Append(const std::string& name, const std::string& bytes) override;
  Status Delete(const std::string& name) override;
  StatusOr<std::vector<std::string>> List() const override;

  const std::string& dir() const { return dir_; }

 private:
  Status EnsureDir() const;
  std::string PathFor(const std::string& name) const;

  std::string dir_;
};

}  // namespace ckpt
}  // namespace vaq

#endif  // VAQ_CKPT_STORE_H_
