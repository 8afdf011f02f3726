// ERR001 bad fixture: awaited Status results silently dropped. (A plain call
// that drops a Status does not compile: -Werror=unused-result.)

struct Device {
  IoAwaiter Read(uint64_t offset, uint32_t length);
};

sim::Task Driver(io::Device& device) {
  co_await device.Read(0, 4096);  // ERR001: awaited Status discarded
}

sim::Task Probe(io::Device* device) {
  co_await device->Read(8192, 4096);  // ERR001: awaited Status discarded
}
