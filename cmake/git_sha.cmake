# Build-time step: write OUT, a header defining HB_GIT_SHA as the short sha
# of the commit checked out at SRC ("unknown" outside a git checkout).
# OUT is rewritten only when the sha changed, so a build with no new
# commit recompiles and relinks nothing.
#
#   cmake -DSRC=<source dir> -DOUT=<header> -P cmake/git_sha.cmake
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${SRC}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE rc
  ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT sha)
  set(sha "unknown")
endif()
set(content "#pragma once\n#define HB_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUT})
  file(READ ${OUT} old)
endif()
if(NOT old STREQUAL content)
  file(WRITE ${OUT} "${content}")
endif()
