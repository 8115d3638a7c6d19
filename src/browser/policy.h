// The declarative revocation-checking policy model.
//
// Table 2 of the paper describes, for 30 browser/OS combinations, whether
// revocation is checked per chain position and protocol, what happens when
// revocation information is unavailable, how unknown OCSP statuses and
// staples are treated. A Policy captures exactly those degrees of freedom;
// profiles.h instantiates one per browser/OS combination.
#pragma once

#include <cstdint>
#include <string>

namespace rev::browser {

// Whether a check is performed at all.
enum class CheckLevel : std::uint8_t {
  kNever,   // revocation not checked for this position/protocol
  kEvOnly,  // checked only when the leaf asserts an EV policy
  kAlways,
};

// What the browser does when it attempted a check but could not obtain the
// revocation information (NXDOMAIN / 404 / timeout).
enum class FailureAction : std::uint8_t {
  kAccept,  // soft-fail: trust the certificate anyway
  kReject,  // hard-fail
  kWarn,    // pop a user warning (IE 10's leaf behavior, cell "a")
};

// Chain positions the paper distinguishes.
enum class Position : std::uint8_t {
  kLeaf,
  kFirstIntermediate,   // "Int. 1": issued the leaf
  kHigherIntermediate,  // "Int. 2+": everything between Int.1 and the root
};

// Per-position, per-protocol rules.
struct PositionPolicy {
  CheckLevel check = CheckLevel::kNever;
  FailureAction on_unavailable = FailureAction::kAccept;
  // Chrome 44 on Windows checks a non-EV first intermediate's CRL "only if
  // it only has a CRL listed" (§6.3); this skips the direct CRL check when
  // an OCSP responder is also present.
  bool skip_crl_if_ocsp_listed = false;
};

struct ProtocolPolicy {
  PositionPolicy leaf;
  PositionPolicy first_intermediate;
  PositionPolicy higher_intermediate;

  const PositionPolicy& For(Position p) const {
    switch (p) {
      case Position::kLeaf: return leaf;
      case Position::kFirstIntermediate: return first_intermediate;
      case Position::kHigherIntermediate: return higher_intermediate;
    }
    return leaf;
  }
};

struct Policy {
  std::string browser;  // "Chrome 44"
  std::string os;       // "OS X"

  ProtocolPolicy crl;
  ProtocolPolicy ocsp;

  // When the leaf has no intermediates above it, the "first position"
  // unavailability rule of some browsers (Opera 31, Safari, IE) applies to
  // the leaf itself.
  bool first_position_rule_covers_bare_leaf = false;

  // OCSP `unknown` handled correctly (reject) or treated as trusted.
  bool reject_unknown_ocsp = false;

  // Fall back to the CRL when the OCSP responder is unavailable.
  CheckLevel try_crl_on_ocsp_failure = CheckLevel::kNever;

  // Consult a pushed revocation list (Chrome's CRLSet, §7) before any
  // network checks. The set itself is supplied via Client::SetCrlSet.
  bool use_crlset = false;
  // Consult Mozilla's OneCRL intermediate blocklist (§7 footnote 24),
  // supplied via Client::SetOneCrl.
  bool use_onecrl = false;
  // Chrome 44 "declares [BlockedSPKI] certificates as revoked in the URL
  // status bar, but still completes the connection and renders the page"
  // (§7.1 note 26 — the authors filed a bug). True reproduces that bug;
  // false gives the obviously-intended reject.
  bool blocked_spki_bug = true;

  // OCSP Stapling.
  bool request_staple = false;
  // RFC 6961 multi-staple (status_request_v2); no shipped browser in the
  // paper supports it — kept for the extension ablation.
  bool request_multi_staple = false;
  // Android requests staples but ignores them during validation.
  bool use_staple_in_validation = true;
  // A staple with status `revoked` rejects the connection; browsers that
  // don't respect it fall through to contacting the responder directly.
  bool respect_revoked_staple = false;

  std::string DisplayName() const { return browser + " / " + os; }
};

}  // namespace rev::browser
