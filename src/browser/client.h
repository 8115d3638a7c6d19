// The browser-side SSL client: performs the handshake, validates the chain,
// and executes the revocation-checking policy against the simulated network.
#pragma once

#include <string>

#include "browser/policy.h"
#include "crlset/crlset.h"
#include "crlset/onecrl.h"
#include "net/retry.h"
#include "net/simnet.h"
#include "tls/handshake.h"
#include "util/time.h"
#include "x509/verify.h"

namespace rev::browser {

struct VisitOutcome {
  enum class Decision : std::uint8_t { kAccepted, kRejected, kWarned };

  Decision decision = Decision::kAccepted;
  bool chain_valid = false;
  std::string reject_reason;  // human-readable, for reports

  // Instrumentation for the latency/bandwidth cost analyses: one fetch
  // per URL consulted (every fetch is a single attempt).
  int crl_fetches = 0;
  int ocsp_fetches = 0;
  double revocation_seconds = 0;  // time spent fetching revocation info
  std::uint64_t revocation_bytes = 0;
  bool used_staple = false;
  // A CRLSet hit happened; with the BlockedSPKI bug the connection may
  // still have been accepted (the URL bar lies).
  bool crlset_hit = false;

  bool accepted() const { return decision == Decision::kAccepted; }
  bool rejected() const { return decision == Decision::kRejected; }
  bool warned() const { return decision == Decision::kWarned; }
};

class Client {
 public:
  // `roots` is the trust store (the paper installs its test root in each
  // browser VM). The client keeps no cross-visit cache, matching the
  // fresh-VM-per-test methodology (§6.3).
  Client(Policy policy, net::SimNet* net, x509::CertPool roots);

  // Installs the pushed revocation list consulted when the policy sets
  // `use_crlset` (Chrome's out-of-band channel). Not owned; may be null.
  void SetCrlSet(const crlset::CrlSet* crlset) { crlset_ = crlset; }

  // Installs the OneCRL intermediate blocklist consulted when the policy
  // sets `use_onecrl`. Not owned; may be null.
  void SetOneCrl(const crlset::OneCrl* onecrl) { onecrl_ = onecrl; }

  // Connects to `server`, validates, and applies the revocation policy.
  VisitOutcome Visit(tls::TlsServer& server, util::Timestamp now);

  // Every CRL/OCSP fetch is a single attempt by design: the Table 2
  // matrix measures each browser's *decision* behavior, which must not
  // depend on a resilience layer.
  const Policy& policy() const { return policy_; }

 private:
  Policy policy_;
  net::SimNet* net_;
  x509::CertPool roots_;
  const crlset::CrlSet* crlset_ = nullptr;
  const crlset::OneCrl* onecrl_ = nullptr;
};

}  // namespace rev::browser
