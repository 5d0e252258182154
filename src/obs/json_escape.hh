/**
 * @file
 * The one JSON string escaper. Every string the hand-rolled JSON
 * writers emit (reports, the sweep journal, error payloads, telemetry
 * timelines) is escaped here, so they agree byte for byte. It lives in
 * axmemo_obs, the lowest library, so common/ and obs/ can use it
 * without reaching up into core/.
 */

#ifndef AXMEMO_OBS_JSON_ESCAPE_HH
#define AXMEMO_OBS_JSON_ESCAPE_HH

#include <string>
#include <string_view>

namespace axmemo {

/** Append @p text to @p out as JSON string content per RFC 8259, with
 * no surrounding quotes: `"` `\` newline, CR and tab get their short
 * escapes, every other control byte becomes `\u00XX`. */
void appendJsonEscaped(std::string &out, std::string_view text);

/** Append @p text to @p out as a quoted JSON string. */
inline void
appendJsonString(std::string &out, std::string_view text)
{
    out += '"';
    appendJsonEscaped(out, text);
    out += '"';
}

} // namespace axmemo

#endif // AXMEMO_OBS_JSON_ESCAPE_HH
