# Layering check, run by ctest as `layering_check`. Fails when an include
# points the wrong way across a layer boundary:
#   - a file under src/query/ includes storage/ or server/ (query sits
#     below both);
#   - src/storage/journal.{h,cc} include anything but common/ (the
#     journal treats statements as opaque text);
#   - a file of the engine's layers (common, core, query, constraints,
#     triggers, storage, server) includes analysis/, baselines/ or
#     workload/ (leaves the engine never depends on).
#
#   cmake -DSRC_DIR=<repo>/src -P tests/check_layering.cmake
if(NOT SRC_DIR)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=<repo>/src -P check_layering.cmake")
endif()

set(include_regex "^[ \t]*#[ \t]*include[ \t]*\"")
set(violations "")

file(GLOB_RECURSE query_files "${SRC_DIR}/query/*")
foreach(file IN LISTS query_files)
  file(STRINGS "${file}" lines REGEX "${include_regex}(storage|server)/")
  foreach(line IN LISTS lines)
    list(APPEND violations "${file}: ${line}")
  endforeach()
endforeach()

foreach(file "${SRC_DIR}/storage/journal.h" "${SRC_DIR}/storage/journal.cc")
  file(STRINGS "${file}" lines REGEX "${include_regex}")
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "\"(common/[^\"]*|storage/journal\\.h)\"")
      list(APPEND violations "${file}: ${line}")
    endif()
  endforeach()
endforeach()

foreach(layer common core query constraints triggers storage server)
  file(GLOB_RECURSE layer_files "${SRC_DIR}/${layer}/*")
  foreach(file IN LISTS layer_files)
    file(STRINGS "${file}" lines
         REGEX "${include_regex}(analysis|baselines|workload)/")
    foreach(line IN LISTS lines)
      list(APPEND violations "${file}: ${line}")
    endforeach()
  endforeach()
endforeach()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "layering violations:\n  ${report}")
endif()
message(STATUS "layering ok")
