// Scanners over the simulated internet.
//
// CertScanner reproduces the Rapid7-style port-443 certificate harvest the
// paper builds its Leaf Set from (§3.1); HandshakeScanner reproduces the
// University of Michigan TLS-handshake scans used to measure OCSP Stapling
// support (§4.3), including the repeat-connection protocol behind Fig. 3.
//
// Observations reference shared Certificate objects (scans of a 13M-server
// population would otherwise duplicate gigabytes of DER); the pipeline
// ingests their DER, borrowed through CertObservation::Der().
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "scan/internet.h"
#include "util/bytes.h"
#include "util/time.h"

namespace rev::scan {

struct CertObservation {
  std::uint32_t ip = 0;
  // Advertised chain, leaf first (excluding the root).
  std::vector<x509::CertPtr> chain;

  // The chain's DER, leaf first, borrowed from `chain` (the input of
  // core::Pipeline::ObserveDer).
  std::vector<BytesView> Der() const {
    std::vector<BytesView> der;
    der.reserve(chain.size());
    for (const x509::CertPtr& cert : chain) der.push_back(cert->der);
    return der;
  }
};

struct CertScanSnapshot {
  util::Timestamp time = 0;
  std::vector<CertObservation> observations;
};

// Streaming scan: invokes `fn` with each alive server's observation as it is
// harvested, never materializing the whole snapshot. This is the ingest path
// for Pipeline::BeginScan/ObserveDer — a 13M-server snapshot stays O(1)
// resident instead of O(servers).
void StreamCertScan(const Internet& internet, util::Timestamp t,
                    const std::function<void(const CertObservation&)>& fn);

// Scans every alive server, harvesting advertised chains into one resident
// snapshot (the corpus_test reference oracle and tests; ingest streams).
CertScanSnapshot RunCertScan(const Internet& internet, util::Timestamp t);

struct HandshakeObservation {
  std::uint32_t ip = 0;
  x509::CertPtr leaf;
  bool sent_staple = false;
};

struct HandshakeScanSnapshot {
  util::Timestamp time = 0;
  std::vector<HandshakeObservation> observations;
};

// Performs one TLS handshake (with status_request) against every alive
// server. Mutates server staple caches, exactly like a real scan warms
// nginx's OCSP cache.
HandshakeScanSnapshot RunHandshakeScan(Internet& internet, util::Timestamp t);

// Repeatedly connects to one server, `attempts` times with `gap_seconds`
// between connections, and reports after how many attempts a staple was
// first observed (0 = never). This is the paper's 20,000-server repeat
// experiment (Fig. 3).
int AttemptsUntilStaple(Server& server, util::Timestamp start, int attempts,
                        std::int64_t gap_seconds = 3);

}  // namespace rev::scan
