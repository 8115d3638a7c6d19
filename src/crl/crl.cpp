#include "crl/crl.h"

#include <algorithm>
#include <sstream>

#include "asn1/reader.h"
#include "asn1/writer.h"
#include "util/stats.h"
#include "x509/spki.h"

namespace rev::crl {

namespace {

// TBSCertList ::= SEQUENCE { version v2, signature, issuer, thisUpdate,
//   nextUpdate OPTIONAL, revokedCertificates SEQUENCE OF SEQUENCE {
//   userCertificate, revocationDate, crlEntryExtensions OPTIONAL } OPTIONAL,
//   crlExtensions [0] EXPLICIT OPTIONAL }
void EncodeTbsCrl(asn1::Writer& w, const TbsCrl& tbs,
                  crypto::KeyType sig_type) {
  const std::size_t tbs_seq = w.Begin(asn1::kTagSequence);
  w.Integer(1);  // v2
  x509::EncodeSignatureAlgorithm(w, sig_type);
  tbs.issuer.Encode(w);
  w.Time(tbs.this_update);
  if (tbs.next_update != 0) w.Time(tbs.next_update);
  if (!tbs.entries.empty()) {
    const std::size_t entries = w.Begin(asn1::kTagSequence);
    for (const CrlEntry& entry : tbs.entries) {
      const std::size_t seq = w.Begin(asn1::kTagSequence);
      w.IntegerUnsigned(entry.serial);
      w.Time(entry.revocation_date);
      if (entry.reason != x509::ReasonCode::kNoReasonCode) {
        const std::size_t extensions = w.Begin(asn1::kTagSequence);
        x509::EncodeCrlReason(w, entry.reason);
        w.End(extensions);
      }
      w.End(seq);
    }
    w.End(entries);
  }
  if (tbs.crl_number >= 0) {
    const std::size_t wrapper = w.BeginContext(0);
    const std::size_t extensions = w.Begin(asn1::kTagSequence);
    x509::EncodeCrlNumber(w, tbs.crl_number);
    w.End(extensions);
    w.End(wrapper);
  }
  w.End(tbs_seq);
}

}  // namespace

Crl SignCrl(const TbsCrl& tbs, const crypto::KeyPair& issuer_key) {
  Crl crl;
  crl.tbs = tbs;
  crl.sig_type = issuer_key.type;
  // CertificateList ::= SIGNED { TBSCertList }, in one buffer; an entry
  // without a reason is ~40 bytes, so the reserve covers the common shape.
  crl.der.reserve(256 + 48 * tbs.entries.size());
  asn1::Writer w(crl.der);
  x509::EncodeSigned(
      w, issuer_key,
      [&](asn1::Writer& tbs_w) { EncodeTbsCrl(tbs_w, tbs, issuer_key.type); },
      &crl.tbs_der, &crl.signature);
  return crl;
}

std::optional<Crl> ParseCrl(BytesView der) {
  asn1::Reader top(der);
  asn1::Reader crl_seq;
  if (!top.ReadSequence(&crl_seq) || !top.Empty()) return std::nullopt;

  Crl crl;
  crl.der.assign(der.begin(), der.end());

  BytesView tbs_raw;
  {
    asn1::Reader probe = crl_seq;
    if (!probe.ReadRawTlv(&tbs_raw)) return std::nullopt;
    crl_seq = probe;
  }
  crl.tbs_der.assign(tbs_raw.begin(), tbs_raw.end());

  asn1::Reader tbs(tbs_raw);
  asn1::Reader tbs_seq;
  if (!tbs.ReadSequence(&tbs_seq)) return std::nullopt;

  std::int64_t version;
  if (!tbs_seq.ReadInteger(&version) || version != 1) return std::nullopt;

  auto inner_sig_type = x509::DecodeSignatureAlgorithm(tbs_seq);
  if (!inner_sig_type) return std::nullopt;

  if (!x509::Name::Read(tbs_seq, nullptr, &crl.tbs.issuer))
    return std::nullopt;

  if (!tbs_seq.ReadTime(&crl.tbs.this_update)) return std::nullopt;

  // nextUpdate is OPTIONAL: present iff next TLV is a time type.
  if (tbs_seq.NextIs(asn1::kTagUtcTime) ||
      tbs_seq.NextIs(asn1::kTagGeneralizedTime)) {
    if (!tbs_seq.ReadTime(&crl.tbs.next_update)) return std::nullopt;
  }

  if (tbs_seq.NextIs(asn1::kTagSequence)) {
    asn1::Reader entries;
    if (!tbs_seq.ReadSequence(&entries)) return std::nullopt;
    while (!entries.Empty()) {
      asn1::Reader entry_seq;
      if (!entries.ReadSequence(&entry_seq)) return std::nullopt;
      CrlEntry entry;
      if (!entry_seq.ReadIntegerUnsigned(&entry.serial) ||
          !entry_seq.ReadTime(&entry.revocation_date))
        return std::nullopt;
      if (entry_seq.NextIs(asn1::kTagSequence)) {
        x509::Extensions exts;
        if (!x509::ReadExtensions(entry_seq, &exts)) return std::nullopt;
        for (const x509::ExtensionView& ext : exts) {
          if (asn1::OidContentIs(ext.oid, asn1::oids::CrlReason())) {
            auto reason = x509::ParseCrlReason(ext.value);
            if (!reason) return std::nullopt;
            entry.reason = *reason;
          }
        }
      }
      crl.tbs.entries.push_back(std::move(entry));
    }
  }

  if (tbs_seq.NextIsContext(0)) {
    asn1::Reader ext_wrapper;
    if (!tbs_seq.ReadContextExplicit(0, &ext_wrapper)) return std::nullopt;
    x509::Extensions exts;
    if (!x509::ReadExtensions(ext_wrapper, &exts)) return std::nullopt;
    for (const x509::ExtensionView& ext : exts) {
      if (asn1::OidContentIs(ext.oid, asn1::oids::CrlNumber())) {
        auto number = x509::ParseCrlNumber(ext.value);
        if (!number) return std::nullopt;
        crl.tbs.crl_number = *number;
      }
    }
  }

  auto outer_sig_type = x509::DecodeSignatureAlgorithm(crl_seq);
  if (!outer_sig_type || *outer_sig_type != *inner_sig_type)
    return std::nullopt;
  crl.sig_type = *outer_sig_type;

  BytesView sig_bits;
  unsigned unused = 0;
  if (!crl_seq.ReadBitString(&sig_bits, &unused) || unused != 0)
    return std::nullopt;
  crl.signature.assign(sig_bits.begin(), sig_bits.end());
  if (!crl_seq.Empty()) return std::nullopt;
  return crl;
}

bool VerifyCrlSignature(const Crl& crl, const crypto::PublicKey& issuer_key) {
  if (issuer_key.type != crl.sig_type) return false;
  return crypto::Verify(issuer_key, crl.tbs_der, crl.signature);
}

CrlIndex::CrlIndex(const Crl& crl) : entries_(crl.tbs.entries) {
  std::sort(entries_.begin(), entries_.end(),
            [](const CrlEntry& a, const CrlEntry& b) {
              return util::BytesLess{}(a.serial, b.serial);
            });
}

const CrlEntry* CrlIndex::Lookup(const x509::Serial& serial) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), serial,
                             [](const CrlEntry& e, const x509::Serial& s) {
                               return e.serial < s;
                             });
  if (it == entries_.end() || it->serial != serial) return nullptr;
  return &*it;
}

std::string DescribeCrl(const Crl& crl, std::size_t max_entries) {
  std::ostringstream out;
  out << "CRL:\n";
  out << "  issuer      : " << crl.tbs.issuer.ToString() << "\n";
  out << "  this update : " << util::FormatDateTime(crl.tbs.this_update) << "\n";
  if (crl.tbs.next_update != 0)
    out << "  next update : " << util::FormatDateTime(crl.tbs.next_update)
        << "\n";
  if (crl.tbs.crl_number >= 0)
    out << "  CRL number  : " << crl.tbs.crl_number << "\n";
  out << "  entries     : " << crl.tbs.entries.size() << "\n";
  out << "  size        : "
      << util::HumanBytes(static_cast<double>(crl.SizeBytes())) << "\n";
  std::size_t shown = 0;
  for (const CrlEntry& entry : crl.tbs.entries) {
    if (shown++ >= max_entries) {
      out << "    ... " << (crl.tbs.entries.size() - max_entries) << " more\n";
      break;
    }
    out << "    " << x509::SerialToString(entry.serial) << "  revoked "
        << util::FormatDate(entry.revocation_date) << "  "
        << x509::ReasonCodeName(entry.reason) << "\n";
  }
  return out.str();
}

}  // namespace rev::crl
