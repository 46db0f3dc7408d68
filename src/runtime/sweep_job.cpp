#include "runtime/sweep_job.hpp"

#include <algorithm>

#include "net/socket_transport.hpp"

namespace nopfs::runtime {

sim::SweepServiceReport run_sweep_job(const std::vector<sim::SweepPoint>& points,
                                      const WorkerEndpoint& endpoint,
                                      const sim::SweepServiceOptions& options) {
  // An elastic sweep needs the socket even for a solo root (world 1 +
  // max_workers > 1): late joiners rendezvous against it mid-sweep.
  const int max_world = std::max(endpoint.world_size, options.max_workers);
  if (max_world <= 1) {
    return sim::run_sweep_service(nullptr, points, options);
  }
  net::SocketOptions socket;
  socket.rank = endpoint.rank;
  socket.world_size = endpoint.world_size;
  socket.rendezvous_host = endpoint.rendezvous_host;
  socket.rendezvous_port = endpoint.rendezvous_port;
  socket.timeout_s = endpoint.timeout_s;
  if (options.max_workers > endpoint.world_size) {
    socket.max_world = options.max_workers;
  }
  net::SocketTransport transport(socket);
  return sim::run_sweep_service(&transport, points, options);
}

}  // namespace nopfs::runtime
