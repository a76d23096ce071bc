# Smoke test for CLI flag hardening: malformed numeric flag values must
# exit 1 with a message naming the flag — never abort (an uncaught
# std::invalid_argument from std::stoull shows up here as a signal exit,
# which fails the EQUAL check). Usage errors (no/unknown command) stay
# exit 2.
#
# Run via: cmake -DSEGIDX_BIN=<path to segidx> -P cli_smoke_test.cmake

if(NOT DEFINED SEGIDX_BIN)
  message(FATAL_ERROR "pass -DSEGIDX_BIN=<path to the segidx binary>")
endif()

function(expect_exit expected_code pattern)
  execute_process(COMMAND ${SEGIDX_BIN} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL expected_code)
    message(FATAL_ERROR
            "segidx ${ARGN}: exit '${code}', want ${expected_code}\n"
            "stderr: ${err}")
  endif()
  if(NOT pattern STREQUAL "" AND NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
            "segidx ${ARGN}: stderr does not match '${pattern}'\n"
            "stderr: ${err}")
  endif()
endfunction()

# Usage errors: exit 2.
expect_exit(2 "usage:")
expect_exit(2 "usage:" frobnicate)

# The usage header names every dispatched subcommand.
foreach(cmd create insert query stats verify check scrub salvage serve
            torture)
  expect_exit(2 "segidx <([a-z-]+[|])*${cmd}[|>]")
endforeach()

# Malformed numeric flag values: exit 1, message names the flag. None of
# these reach the filesystem — flags are validated before any file is
# opened or created.
expect_exit(1 "--records: expected a positive integer"
            torture --records=abc --quiet=1)
expect_exit(1 "--records: expected a positive integer"
            torture --records=-5 --quiet=1)
expect_exit(1 "--records: expected a positive integer"
            torture --records=0 --quiet=1)
expect_exit(1 "--threads: expected a positive integer"
            serve --file=cli_smoke_missing.idx --threads=0)
expect_exit(1 "--expected: expected a non-negative integer"
            create --file=cli_smoke_unwritten.idx --kind=rtree
            --expected=12x)
expect_exit(1 "--domain: want xlo:xhi:ylo:yhi"
            create --file=cli_smoke_unwritten.idx --kind=rtree
            --domain=1:2:3)
expect_exit(1 "--limit: expected a non-negative integer"
            query --file=cli_smoke_missing.idx --rect=0:1:0:1 --limit=xyz)
expect_exit(1 "--reset-prob: expected a number"
            torture --mode=serve --reset-prob=zz --quiet=1)
expect_exit(1 "not a TCP port"
            serve --file=cli_smoke_missing.idx --port=99999)
expect_exit(1 "--queue-depth: expected a positive integer"
            serve --file=cli_smoke_missing.idx --queue-depth=0)

message(STATUS "cli flag smoke: all malformed values rejected cleanly")
