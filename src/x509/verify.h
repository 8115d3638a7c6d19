// Certificate chain building and verification.
//
// Mirrors the paper's §3.1 methodology: chains are built from a trusted root
// store plus a pool of candidate intermediates; the Intermediate Set is the
// iterative closure of CA certificates verifiable from the roots; leaves are
// validated with an option to ignore date errors (the scans span 1.5 years).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "util/bytes.h"
#include "util/time.h"
#include "x509/certificate.h"

namespace rev::x509 {

using CertPtr = std::shared_ptr<const Certificate>;

enum class VerifyStatus {
  kOk,
  kNoPath,          // no chain to a trusted root
  kBadSignature,
  kExpired,
  kNotYetValid,
  kIssuerNotCa,     // chain element lacks basicConstraints CA
  kDepthExceeded,
  kNameConstraintViolation,  // leaf name outside a CA's NameConstraints
};

const char* VerifyStatusName(VerifyStatus s);

struct VerifyOptions {
  util::Timestamp at = 0;
  // The paper configures OpenSSL to ignore certificate date errors when
  // building the Leaf Set (certs need only have been valid at some time).
  bool ignore_dates = false;
  // Enforce the NameConstraints extension on CA certificates. Off by
  // default — §2.1 footnote 2: "it is rarely used and few clients support
  // it".
  bool enforce_name_constraints = false;
  std::size_t max_depth = 8;
};

struct VerifyResult {
  VerifyStatus status = VerifyStatus::kNoPath;
  // Leaf first, root last; populated only on kOk.
  std::vector<CertPtr> chain;

  bool ok() const { return status == VerifyStatus::kOk; }
};

// An indexed set of certificates, searchable by subject name. Used both as a
// root store and as the candidate-intermediate pool.
class CertPool {
 public:
  // Adds a certificate; duplicate fingerprints are ignored.
  void Add(CertPtr cert);

  std::vector<CertPtr> FindBySubject(const Name& subject) const;
  bool Contains(const Certificate& cert) const;
  std::size_t size() const { return all_.size(); }
  const std::vector<CertPtr>& all() const { return all_; }

 private:
  std::map<Bytes, std::vector<CertPtr>, util::BytesLess> by_subject_;
  std::map<Bytes, CertPtr, util::BytesLess> by_fingerprint_;
  std::vector<CertPtr> all_;
};

// Builds and verifies a chain from `leaf` to a root in `roots`, drawing
// intermediates from `intermediates`. Depth-first over issuer candidates
// (handles cross-signed CAs by trying every candidate path).
VerifyResult VerifyChain(const CertPtr& leaf, const CertPool& intermediates,
                         const CertPool& roots, const VerifyOptions& options);

// Iteratively verifies candidate CA certificates against the roots, adding
// newly verified intermediates to the pool until a fixpoint — the paper's
// Intermediate Set construction (§3.1). Returns the verified intermediates.
std::vector<CertPtr> BuildIntermediateSet(const std::vector<CertPtr>& candidates,
                                          const CertPool& roots);

}  // namespace rev::x509
