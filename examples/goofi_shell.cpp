// goofi_shell: the GOOFI tool as an interactive/scriptable command shell —
// the CLI equivalent of the paper's GUI (Figs. 5-7).
//
// Usage:
//   goofi_shell                 read commands from stdin
//   goofi_shell <script-file>   execute a script
//   goofi_shell -c '<command>'  execute one command
//
// Example session:
//   target describe thor-rd-sim
//   campaign set demo workload=bubblesort locations=internal_regfile
//       experiments=100 window=1:1000      (one line in the shell)
//   run demo 4                          (4 workers; default 1)
//   analyze demo
//   sql SELECT COUNT(*) FROM LoggedSystemState

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/goofi.hpp"
#include "db/database.hpp"
#include "testcard/testcard.hpp"
#include "tool/shell.hpp"
#include "util/strings.hpp"

using namespace goofi;

int main(int argc, char** argv) {
  db::Database database;
  core::CampaignStore store(&database);
  testcard::SimTestCard card;  // the scan-chain layout `list chains` shows
  core::ConsoleProgressMonitor progress(50);

  tool::Shell shell(&database, &store);
  shell.AddTarget(core::ThorRdTarget::kTargetName, &card,
                  core::MakeSimThorFactory(&store));
  shell.SetProgressMonitor(&progress);
  // Register the target description up front so campaigns can be defined
  // immediately (configuration phase, Fig. 5).
  if (auto st = shell.Execute(std::string("target describe ") +
                              core::ThorRdTarget::kTargetName);
      !st.ok()) {
    std::fprintf(stderr, "init failed: %s\n", st.status().ToString().c_str());
    return 1;
  }

  if (argc >= 3 && std::string(argv[1]) == "-c") {
    auto result = shell.Execute(argv[2]);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    std::fputs(result.value().c_str(), stdout);
    return 0;
  }

  if (argc >= 2) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open script %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string transcript;
    const util::Status st = shell.ExecuteScript(buffer.str(), &transcript);
    std::fputs(transcript.c_str(), stdout);
    return st.ok() ? 0 : 1;
  }

  // Interactive.
  std::string line;
  std::fputs("GOOFI shell (type 'help'; ctrl-d to exit)\n", stdout);
  while (true) {
    std::fputs("goofi> ", stdout);
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (util::Trim(line) == "quit" || util::Trim(line) == "exit") break;
    auto result = shell.Execute(line);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
    } else {
      std::fputs(result.value().c_str(), stdout);
    }
  }
  return 0;
}
