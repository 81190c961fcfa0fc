/// \file job_knobs_test.cpp
/// \brief The two job front ends decode one knob list the same way: an
/// `ocr_route` flag (io::job_knob_flags through util::parse_flags) and
/// the matching `ocr_served` JSONL key (io::parse_job_request) give equal
/// io::JobRequests, and an invalid value gets the same Status from either.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "io/job_io.hpp"
#include "service/job.hpp"
#include "util/fault.hpp"
#include "util/flags.hpp"

namespace ocr {
namespace {

using io::JobKnob;
using io::JobRequest;
using io::kJobKnobs;

/// Decodes `ocr_route FLAG VALUE` into a default request.
util::StatusOr<JobRequest> from_flag(const std::string& flag,
                                     const std::string& value) {
  JobRequest request;
  const char* argv[] = {"ocr_route", flag.c_str(), value.c_str()};
  const util::Status status =
      util::parse_flags(3, argv, io::job_knob_flags(request));
  if (!status.ok()) return status;
  return request;
}

/// Decodes the JSONL line `{"KEY": VALUE}` (VALUE already JSON-encoded).
util::StatusOr<JobRequest> from_line(const std::string& key,
                                     const std::string& json_value) {
  return io::parse_job_request("{\"" + key + "\":" + json_value + "}");
}

/// Every knob of \p a equals the same knob of \p b.
void expect_same_request(const JobRequest& a, const JobRequest& b,
                         const std::string& context) {
  for (const JobKnob& knob : kJobKnobs) {
    if (knob.text != nullptr) {
      EXPECT_EQ(a.*knob.text, b.*knob.text) << context << " / " << knob.key;
    } else {
      EXPECT_EQ(a.*knob.number, b.*knob.number)
          << context << " / " << knob.key;
    }
  }
}

const JobKnob& knob_named(const std::string& key) {
  for (const JobKnob& knob : kJobKnobs) {
    if (key == knob.key) return knob;
  }
  ADD_FAILURE() << "no knob '" << key << "'";
  return kJobKnobs[0];
}

TEST(JobKnobs, EveryFlagDecodesLikeItsJsonlKey) {
  int flags = 0;
  for (const JobKnob& knob : kJobKnobs) {
    if (knob.flag == nullptr) continue;
    ++flags;
    const std::string text = knob.text != nullptr ? "value-7" : "7";
    const std::string json =
        knob.text != nullptr ? "\"" + text + "\"" : text;
    const auto cli = from_flag(knob.flag, text);
    const auto wire = from_line(knob.key, json);
    ASSERT_TRUE(cli.ok()) << knob.flag << ": " << cli.status().to_string();
    ASSERT_TRUE(wire.ok()) << knob.key << ": " << wire.status().to_string();
    expect_same_request(*cli, *wire, knob.key);
    // The knob really moved off its default.
    const JobRequest fresh;
    if (knob.text != nullptr) {
      EXPECT_EQ((*cli).*knob.text, text) << knob.key;
    } else {
      EXPECT_NE((*cli).*knob.number, fresh.*knob.number) << knob.key;
    }
  }
  // Every JobRequest field but the wire-only `id` has an ocr_route flag.
  EXPECT_EQ(flags, static_cast<int>(std::size(kJobKnobs)) - 1);
  EXPECT_EQ(knob_named("id").flag, nullptr);
}

TEST(JobKnobs, ListCoversEveryJsonlKey) {
  // A line naming every knob parses (so no key is missing from the list)
  // and sets every field (so no member is listed twice).
  std::string line = "{";
  for (const JobKnob& knob : kJobKnobs) {
    if (line.size() > 1) line += ',';
    line += '"';
    line += knob.key;
    line += knob.text != nullptr ? "\":\"x\"" : "\":9";
  }
  line += '}';
  const auto request = io::parse_job_request(line);
  ASSERT_TRUE(request.ok()) << request.status().to_string();
  for (const JobKnob& knob : kJobKnobs) {
    if (knob.text != nullptr) {
      EXPECT_EQ((*request).*knob.text, "x") << knob.key;
    } else {
      EXPECT_EQ((*request).*knob.number, 9) << knob.key;
    }
  }
}

TEST(JobKnobs, InvalidValuesGetTheSameSpecStatusOnBothFrontEnds) {
  struct Case {
    const char* key;
    const char* text;  ///< the flag value; the JSONL value is its JSON
  };
  const Case cases[] = {
      {"flow", "bogus"},         {"partition", "bogus"},
      {"fail_policy", "bogus"},  {"engine_mode", "bogus"},
      {"threads", "-1"},         {"threads", "4294967296"},
      {"deadline_ms", "-1"},     {"net_effort", "-5"},
      {"faults", "levelb.conect=@5"},  // a misspelt site
      {"faults", "levelb.connect=@@"},
  };
  for (const Case& c : cases) {
    const JobKnob& knob = knob_named(c.key);
    const std::string json =
        knob.text != nullptr ? std::string("\"") + c.text + "\"" : c.text;
    // Both front ends start from a valid request naming an instance.
    JobRequest cli;
    const char* argv[] = {"ocr_route", "--example", "ami33", knob.flag,
                          c.text};
    ASSERT_TRUE(
        util::parse_flags(5, argv, io::job_knob_flags(cli)).ok())
        << c.key;
    const auto wire = io::parse_job_request(
        "{\"example\":\"ami33\",\"" + std::string(c.key) + "\":" + json +
        "}");
    ASSERT_TRUE(wire.ok()) << wire.status().to_string();
    expect_same_request(cli, *wire, c.key);

    const auto cli_spec = service::spec_from_request(cli);
    const auto wire_spec = service::spec_from_request(*wire);
    ASSERT_FALSE(cli_spec.ok()) << c.key << "=" << c.text;
    ASSERT_FALSE(wire_spec.ok()) << c.key << "=" << c.text;
    EXPECT_EQ(cli_spec.status().kind(), util::StatusKind::kInvalidArgument);
    EXPECT_EQ(cli_spec.status(), wire_spec.status()) << c.key;
  }
}

TEST(JobKnobs, FaultSpecsNameOnlyListedSites) {
  JobRequest request;
  request.example = "ami33";
  for (const std::string_view site : util::kFaultSites) {
    request.faults = std::string(site) + "=@5;seed=2";
    EXPECT_TRUE(service::spec_from_request(request).ok()) << site;
  }
  for (const char* unchecked : {"-", ""}) {  // disarmed; OCR_FAULTS
    request.faults = unchecked;
    EXPECT_TRUE(service::spec_from_request(request).ok()) << unchecked;
  }
  // A job arms the OCR_FAULT sites only; the chaos plan arms the others.
  request.faults = "service.worker.fail=@0";
  EXPECT_FALSE(service::spec_from_request(request).ok());
  for (const std::string_view site : util::kServiceFaultSites) {
    EXPECT_TRUE(util::parse_fault_spec(std::string(site) + "=1",
                                       util::kServiceFaultSites)
                    .ok())
        << site;
  }
  const auto unknown =
      util::parse_fault_spec("levelb.connect=1", util::kServiceFaultSites);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().message(),
            "unknown fault site 'levelb.connect'");
}

TEST(JobKnobs, NonIntegerFlagIsTheJsonlTypeError) {
  for (const char* text : {"abc", "", "12x", "1.5"}) {
    const auto cli = from_flag("--threads", text);
    ASSERT_FALSE(cli.ok()) << text;
    const auto wire = from_line("threads", "\"abc\"");
    ASSERT_FALSE(wire.ok());
    EXPECT_EQ(cli.status(), wire.status()) << text;
    EXPECT_EQ(cli.status().kind(), util::StatusKind::kParseError);
  }
}

TEST(Flags, ParsesValuesSwitchesAndRanges) {
  std::string text;
  long long number = 0;
  double real = 0.0;
  bool on = false;
  const std::vector<util::Flag> flags = {
      util::text_flag("--text", &text),
      util::int_flag("--number", &number, 1),
      util::real_flag("--real", &real),
      util::switch_flag("--on", &on),
  };
  const char* good[] = {"tool", "--text", "a b", "--on",
                        "--number", "3", "--real", "0.25"};
  ASSERT_TRUE(util::parse_flags(8, good, flags).ok());
  EXPECT_EQ(text, "a b");
  EXPECT_EQ(number, 3);
  EXPECT_EQ(real, 0.25);
  EXPECT_TRUE(on);

  const auto error = [&](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "tool");
    return util::parse_flags(static_cast<int>(argv.size()), argv.data(),
                             flags)
        .message();
  };
  EXPECT_EQ(error({"--bogus"}), "unknown argument '--bogus'");
  EXPECT_EQ(error({"--text"}), "missing value for '--text'");
  EXPECT_EQ(error({"--number", "0"}), "--number must be >= 1");
  EXPECT_EQ(error({"--number", "two"}),
            "--number expects an integer, got 'two'");
  EXPECT_EQ(error({"--real", "x"}), "--real expects a number, got 'x'");
  EXPECT_EQ(error({}), "");
}

TEST(Flags, ParseIntegerIsWholeAndInRange) {
  long long v = 0;
  EXPECT_TRUE(util::parse_integer("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(util::parse_integer("+7", &v));
  EXPECT_EQ(v, 7);
  for (const char* bad : {"", " 1", "1 ", "0x10", "9223372036854775808"}) {
    EXPECT_FALSE(util::parse_integer(bad, &v)) << bad;
  }
}

}  // namespace
}  // namespace ocr
