// The in-process bus backend of `net::Transport` (DESIGN.md §2, §14: the
// stand-in for IIOP/DCOM RPC and WebCom's master/client links when every
// party lives in one process).
//
// MPI-style semantics, per the hpc-parallel guides: named endpoints own a
// mailbox; send() transfers ownership of a serialised payload into the
// destination's queue; receive() blocks with a deadline. Failure injection
// — message drop probability and explicit link partitions — models the
// "untrusted network" of Figure 3 and drives the scheduler's
// fault-tolerance tests.
//
// Concurrency (DESIGN.md §12): each mailbox is an MPSC queue under its own
// endpoint mutex, so concurrent senders to *different* endpoints share
// nothing and concurrent senders to the *same* endpoint serialise only on
// that endpoint's lock. The network-wide state splits by mutation rate:
// routing (the name→endpoint map) and partitions are read-mostly behind a
// shared_mutex (senders take it shared), traffic statistics are relaxed
// atomics, and the fault-injection RNG — only consulted when a fault
// probability is non-zero — has its own lock. Masters, clients, replicas
// and authorities send from their own threads through one Network; none
// of them contend on a global lock.
#pragma once

#include "net/transport.hpp"

namespace mwsec::net {

class Network final : public Transport {
 public:
  using Options = Transport::Options;
  using Stats = Transport::Stats;

  Network() : Network(Options{}) {}
  explicit Network(Options options) : Transport(options) {}

  /// Deliver (or drop) a message. Errors on unknown/closed destination.
  /// Safe for any number of concurrent senders.
  mwsec::Status send(Message m) override;
};

}  // namespace mwsec::net
