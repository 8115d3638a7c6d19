// revoked-cli — command-line front end to the library.
//
//   revoked-cli inspect-cert <file.der>       pretty-print a certificate
//   revoked-cli inspect-crl <file.der>        pretty-print a CRL
//   revoked-cli make-demo <dir>               write demo cert/CRL DER files
//   revoked-cli browser-suite <browser> <os>  run the 244-case suite
//   revoked-cli table2                        print the Table 2 matrix
//   revoked-cli profiles                      list browser/OS profiles
#include <cstdio>
#include <cstring>
#include <string>

#include "browser/matrix.h"
#include "browser/profiles.h"
#include "browser/testsuite.h"
#include "ca/ca.h"
#include "crl/crl.h"
#include "x509/describe.h"

using namespace rev;

namespace {

std::optional<Bytes> ReadFile(const char* path) {
  std::FILE* file = std::fopen(path, "rb");
  if (file == nullptr) return std::nullopt;
  Bytes data;
  std::uint8_t buffer[65536];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
    data.insert(data.end(), buffer, buffer + n);
  std::fclose(file);
  return data;
}

bool WriteFile(const std::string& path, BytesView data) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(data.data(), 1, data.size(), file) == data.size();
  std::fclose(file);
  return ok;
}

int InspectCert(const char* path) {
  auto data = ReadFile(path);
  if (!data) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  auto cert = x509::ParseCertificate(*data);
  if (!cert) {
    std::fprintf(stderr, "%s: not a valid DER certificate\n", path);
    return 1;
  }
  std::fputs(x509::DescribeCertificate(*cert).c_str(), stdout);
  return 0;
}

int InspectCrl(const char* path) {
  auto data = ReadFile(path);
  if (!data) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  const auto crl = crl::ParseCrlView(*data);
  if (!crl) {
    std::fprintf(stderr, "%s: not a valid DER CRL\n", path);
    return 1;
  }
  std::fputs(crl::DescribeCrl(*crl, 20).c_str(), stdout);
  return 0;
}

int MakeDemo(const char* dir) {
  util::Rng rng(1);
  const util::Timestamp now = util::MakeDate(2015, 3, 31);
  ca::CertificateAuthority::Options options;
  options.name = "Demo CA";
  options.domain = "democa.sim";
  auto ca = ca::CertificateAuthority::CreateRoot(options, rng,
                                                 now - 365 * util::kSecondsPerDay);
  ca::CertificateAuthority::IssueOptions issue;
  issue.common_name = "www.demo.sim";
  issue.ev = true;
  issue.not_before = now - 30 * util::kSecondsPerDay;
  const x509::CertPtr leaf = ca->Issue(issue, rng);
  ca->Revoke(leaf->tbs.serial, now - 7 * util::kSecondsPerDay,
             x509::ReasonCode::kKeyCompromise);

  const std::string base(dir);
  if (!WriteFile(base + "/ca.der", ca->cert()->der) ||
      !WriteFile(base + "/leaf.der", leaf->der) ||
      !WriteFile(base + "/list.crl", ca->GetCrl(0, now).der)) {
    std::fprintf(stderr, "cannot write into %s\n", dir);
    return 1;
  }
  std::printf("wrote %s/ca.der, leaf.der, list.crl — try inspect-cert/-crl\n",
              dir);
  return 0;
}

int BrowserSuite(const char* browser, const char* os) {
  const browser::BrowserProfile* profile = browser::FindProfile(browser, os);
  if (profile == nullptr) {
    std::fprintf(stderr, "unknown profile %s/%s (see `profiles`)\n", browser, os);
    return 1;
  }
  const util::Timestamp now = util::MakeDate(2015, 3, 31);
  int rejected = 0, warned = 0, accepted = 0;
  for (const browser::TestCase& test : browser::GenerateTestSuite()) {
    const browser::VisitOutcome outcome =
        browser::RunCase(test, profile->policy, 2015, now);
    if (outcome.rejected()) {
      ++rejected;
    } else if (outcome.warned()) {
      ++warned;
    } else {
      ++accepted;
    }
  }
  std::printf("%s: accepted %d, warned %d, rejected %d of 244\n",
              profile->policy.DisplayName().c_str(), accepted, warned, rejected);
  return 0;
}

int Profiles() {
  for (const browser::BrowserProfile& profile : browser::AllProfiles())
    std::printf("%-16s %-18s column: %s\n", profile.policy.browser.c_str(),
                profile.policy.os.c_str(), profile.column.c_str());
  return 0;
}

int Table2() {
  const browser::Table2 table =
      browser::BuildTable2(2015, util::MakeDate(2015, 3, 31));
  std::fputs(browser::RenderTable2(table).c_str(), stdout);
  return 0;
}

void Usage() {
  std::fputs(
      "usage: revoked-cli <command> [args]\n"
      "  inspect-cert <file.der>\n"
      "  inspect-crl <file.der>\n"
      "  make-demo <dir>\n"
      "  browser-suite <browser> <os>   e.g. \"IE 11\" \"Windows 10\"\n"
      "  table2\n"
      "  profiles\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "inspect-cert" && argc == 3) return InspectCert(argv[2]);
  if (command == "inspect-crl" && argc == 3) return InspectCrl(argv[2]);
  if (command == "make-demo" && argc == 3) return MakeDemo(argv[2]);
  if (command == "browser-suite" && argc == 4)
    return BrowserSuite(argv[2], argv[3]);
  if (command == "table2") return Table2();
  if (command == "profiles") return Profiles();
  Usage();
  return 2;
}
