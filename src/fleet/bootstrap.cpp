#include "fleet/bootstrap.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "net/client.h"
#include "net/wire.h"
#include "store/snapshot.h"

namespace lcaknap::fleet {

ShipResult ship_snapshot(const std::string& source_path,
                         const std::string& dest_dir,
                         const std::string& tenant_id) {
  std::error_code ec;
  std::filesystem::create_directories(dest_dir, ec);
  if (ec) {
    throw std::runtime_error("ship_snapshot: create " + dest_dir + ": " +
                             ec.message());
  }
  std::ifstream in(source_path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("ship_snapshot: cannot read " + source_path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  const std::string final_path = dest_dir + "/" + tenant_id + ".snap";
  // Atomic publish: a restoring replica that races this sees the old file
  // or the new file whole, never a torn prefix.
  store::write_file_atomically(final_path, final_path + ".ship.tmp", bytes);
  return ShipResult{final_path, bytes.size()};
}

void corrupt_snapshot_byte(const std::string& path, std::uint64_t offset) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) {
    throw std::runtime_error("corrupt_snapshot_byte: unreadable or empty " +
                             path);
  }
  const auto at = static_cast<std::streamoff>(offset % size);
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!file) {
    throw std::runtime_error("corrupt_snapshot_byte: cannot open " + path);
  }
  file.seekg(at);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ static_cast<char>(0xFF));
  file.seekp(at);
  file.write(&byte, 1);
  file.flush();
  if (!file) {
    throw std::runtime_error("corrupt_snapshot_byte: write failed on " + path);
  }
}

bool wait_ready(const std::string& host, std::uint16_t port,
                const std::vector<std::string>& tenants,
                std::uint64_t timeout_us, util::Clock& clock,
                std::uint64_t poll_interval_us) {
  const std::uint64_t deadline = clock.now_us() + timeout_us;
  std::uint64_t probe_id = 1;
  while (true) {
    bool all_warm = true;
    try {
      net::Client client(host, port);
      for (const auto& tenant : tenants) {
        net::RequestFrame probe;
        probe.flags = net::RequestFrame::kFlagHealth;
        probe.request_id = probe_id++;
        probe.tenant = tenant;
        const auto response = client.call(probe);
        if (response.status != net::WireStatus::kOk || response.answer == 0) {
          all_warm = false;
          break;
        }
      }
    } catch (const net::ConnectionLost&) {
      all_warm = false;  // not listening yet, or died between polls
    }
    if (all_warm) return true;
    if (clock.now_us() >= deadline) return false;
    clock.sleep_us(poll_interval_us);
  }
}

}  // namespace lcaknap::fleet
