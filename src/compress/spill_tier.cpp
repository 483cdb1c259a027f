#include "compress/spill_tier.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "compress/blob_codec.hpp"
#include "io/byte_codec.hpp"
#include "io/crc32c.hpp"

namespace race2d {

namespace {

constexpr char kSpillMagic[8] = {'R', '2', 'D', 'S', 'P', 'I', 'L', 'L'};
constexpr std::uint8_t kSpillVersion = 1;
constexpr std::size_t kSpillHeaderBytes = 8 + 1 + 4 + 4 + 4;

std::string k_error(const char* code, std::uint32_t id, const char* what) {
  std::ostringstream os;
  os << code << " spill of session " << id << ": " << what;
  return os.str();
}

}  // namespace

SpillTier::SpillTier(std::string dir, std::uint64_t budget_bytes)
    : dir_(std::move(dir)), budget_(budget_bytes) {}

std::string SpillTier::path_for(std::uint32_t id) const {
  std::ostringstream os;
  os << dir_ << "/sess-" << id << ".spill";
  return os.str();
}

void SpillTier::drop_entry(std::uint32_t id) {
  auto it = index_.find(id);
  if (it == index_.end()) return;
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru);
  index_.erase(it);
  std::remove(path_for(id).c_str());
}

SpillTier::StoreResult SpillTier::store(std::uint32_t id,
                                        const std::string& blob) {
  StoreResult result;
  drop_entry(id);  // re-spill of the same id replaces the old file

  std::string file(kSpillMagic, sizeof(kSpillMagic));
  file.push_back(static_cast<char>(kSpillVersion));
  put_le(file, id);
  const std::string payload = blob_compress(blob);
  put_le(file, static_cast<std::uint32_t>(payload.size()));
  put_le(file, crc32c(payload.data(), payload.size()));
  file += payload;

  if (file.size() > budget_) return result;  // would never fit
  while (bytes_ + file.size() > budget_ && !lru_.empty()) {
    const std::uint32_t victim = lru_.front();
    result.dropped.push_back(victim);
    drop_entry(victim);
  }

  // tmp + rename: a crash mid-write leaves no torn `.spill` entry.
  const std::string path = path_for(id);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return result;
    os.write(file.data(), static_cast<std::streamsize>(file.size()));
    os.flush();
    if (!os) {
      std::remove(tmp.c_str());
      return result;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return result;
  }

  lru_.push_back(id);
  Entry e;
  e.lru = std::prev(lru_.end());
  e.bytes = file.size();
  bytes_ += e.bytes;
  index_.emplace(id, e);
  result.stored = true;
  return result;
}

std::optional<std::string> SpillTier::load(std::uint32_t id,
                                           std::string* error) {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    if (error) *error = k_error("K009", id, "no spill entry for this session");
    return std::nullopt;
  }
  const std::string path = path_for(id);
  std::string file;
  {
    std::ifstream is(path, std::ios::binary);
    if (is) {
      std::ostringstream buf;
      buf << is.rdbuf();
      file = buf.str();
    }
  }
  drop_entry(id);  // success or corrupt, the entry is consumed

  const auto reject = [&](const char* code,
                          const char* what) -> std::optional<std::string> {
    if (error) *error = k_error(code, id, what);
    return std::nullopt;
  };
  if (file.size() < kSpillHeaderBytes)
    return reject("K009", "spill file missing or truncated before its header");
  const auto* p = reinterpret_cast<const unsigned char*>(file.data());
  if (std::memcmp(p, kSpillMagic, sizeof(kSpillMagic)) != 0)
    return reject("K009", "spill file magic mismatch");
  if (p[8] != kSpillVersion) return reject("K009", "spill file version mismatch");
  if (get_le<std::uint32_t>(p + 9) != id)
    return reject("K009", "spill file names a different session");
  const auto payload_len = get_le<std::uint32_t>(p + 13);
  const auto crc = get_le<std::uint32_t>(p + 17);
  if (file.size() != kSpillHeaderBytes + payload_len)
    return reject("K009", "spill file length disagrees with its header");
  const char* payload = file.data() + kSpillHeaderBytes;
  if (crc32c(payload, payload_len) != crc)
    return reject("K010", "spill payload fails its CRC32C");
  std::optional<std::string> blob =
      blob_decompress(std::string(payload, payload_len));
  if (!blob) return reject("K010", "spill payload fails to decompress");
  return blob;
}

}  // namespace race2d
