#include "crl/crl.h"

#include <algorithm>
#include <sstream>

#include "asn1/reader.h"
#include "asn1/writer.h"
#include "util/stats.h"
#include "x509/spki.h"

namespace rev::crl {

namespace {

Bytes EncodeEntry(const CrlEntry& entry) {
  std::vector<Bytes> parts;
  parts.push_back(asn1::EncodeIntegerUnsigned(entry.serial));
  parts.push_back(asn1::EncodeTime(entry.revocation_date));
  if (entry.reason != x509::ReasonCode::kNoReasonCode) {
    parts.push_back(x509::EncodeExtensionList({x509::MakeCrlReason(entry.reason)}));
  }
  return asn1::EncodeSequence(parts);
}

}  // namespace

Bytes EncodeTbsCrl(const TbsCrl& tbs, crypto::KeyType sig_type) {
  std::vector<Bytes> parts;
  parts.push_back(asn1::EncodeInteger(1));  // v2
  parts.push_back(x509::EncodeSignatureAlgorithm(sig_type));
  parts.push_back(tbs.issuer.Encode());
  parts.push_back(asn1::EncodeTime(tbs.this_update));
  if (tbs.next_update != 0) parts.push_back(asn1::EncodeTime(tbs.next_update));
  if (!tbs.entries.empty()) {
    std::vector<Bytes> entries;
    entries.reserve(tbs.entries.size());
    for (const CrlEntry& e : tbs.entries) entries.push_back(EncodeEntry(e));
    parts.push_back(asn1::EncodeSequence(entries));
  }
  if (tbs.crl_number >= 0) {
    parts.push_back(asn1::EncodeContextExplicit(
        0, x509::EncodeExtensionList({x509::MakeCrlNumber(tbs.crl_number)})));
  }
  return asn1::EncodeSequence(parts);
}

Crl SignCrl(const TbsCrl& tbs, const crypto::KeyPair& issuer_key) {
  Crl crl;
  crl.tbs = tbs;
  crl.sig_type = issuer_key.type;
  crl.tbs_der = EncodeTbsCrl(tbs, issuer_key.type);
  crl.signature = crypto::Sign(issuer_key, crl.tbs_der);
  crl.der = asn1::EncodeSequence(
      {crl.tbs_der, x509::EncodeSignatureAlgorithm(issuer_key.type),
       asn1::EncodeBitString(crl.signature)});
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

  auto issuer = x509::Name::Decode(tbs_seq);
  if (!issuer) return std::nullopt;
  crl.tbs.issuer = *std::move(issuer);

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
        auto exts = x509::DecodeExtensionList(entry_seq);
        if (!exts) return std::nullopt;
        for (const x509::Extension& ext : *exts) {
          if (ext.oid == asn1::oids::CrlReason()) {
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
    auto exts = x509::DecodeExtensionList(ext_wrapper);
    if (!exts) return std::nullopt;
    for (const x509::Extension& ext : *exts) {
      if (ext.oid == asn1::oids::CrlNumber()) {
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
