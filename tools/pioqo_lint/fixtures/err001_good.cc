// ERR001 good fixture: every awaited Status is consumed.

struct Device {
  IoAwaiter Read(uint64_t offset, uint32_t length);
};

sim::Task Driver(io::Device& device) {
  const Status read = co_await device.Read(0, 4096);
  PIOQO_CHECK(read.ok());
}

sim::Task Probe(io::Device* device, sim::Simulator& sim, uint64_t& errors) {
  if (!(co_await device->Read(8192, 4096)).ok()) ++errors;
  co_await sim::Delay(sim, 1.0);  // resumes to void: nothing to consume
}
