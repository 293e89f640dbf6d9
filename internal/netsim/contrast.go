package netsim

import (
	"fmt"
	"strconv"
	"strings"

	"realsum/internal/report"
)

// contrastAlgos are the bellwethers the raw-vs-compressed section
// tracks: the sums whose miss rates the paper's Table 7 predicts will
// collapse toward the uniform 2^-k floor once the payload stops being
// zero-heavy, plus CRC-32 as the already-at-floor control.
var contrastAlgos = []string{"tcp", "f255", "adler32", "crc32"}

// RawVsCompressedReport renders the Table 7 contrast: the same channel
// battery scored on raw corpus payloads (raw) and on lz-compressed
// payloads (comp), one row per channel, bellwether miss rates side by
// side.  Channels are matched by NAME across the two tallies — the two
// runs need not share a channel list — and a side that never saw a
// channel, or saw it but scored zero corrupted deliveries, renders "-"
// rather than a fake 0% (a rate over zero candidates is not evidence).
//
// Two spans are reported.  The per-algorithm columns score the e2e
// placement — the whole AAL5 PDU, where loss-formed splices live.  The
// trailing tcp@seg pair scores the TCP sum on the per-segment span,
// because the e2e span includes the AAL5 zero padding: a solid burst
// inverting always-zero pad bytes cancels in the ones-complement sum
// no matter what the payload carries, so the e2e tcp rate floors at
// the padding fraction instead of 2^-16.  The segment span is the
// bytes a real transport checksum covers, and is where the burst-miss
// collapse shows cleanly.
func RawVsCompressedReport(raw, comp *Tally) string {
	var b strings.Builder

	tb := report.Table{
		Title:   fmt.Sprintf("netsim %s: raw vs lz-compressed payload, bellwether miss rates", raw.Mode),
		Headers: []string{"channel", "raw corrupt", "lz corrupt"},
	}
	for _, an := range contrastAlgos {
		tb.Headers = append(tb.Headers, an+" raw", an+" lz")
	}
	tb.Headers = append(tb.Headers, "tcp@seg raw", "tcp@seg lz")
	seg := PlaceSegment.String()

	for _, name := range contrastChannels(raw, comp) {
		rs, cs := raw.contrastSide(name, ""), comp.contrastSide(name, "")
		row := []string{name, corruptCell(rs, report.Count), corruptCell(cs, report.Count)}
		for _, an := range contrastAlgos {
			row = append(row, algoCell(rs, an, rateCell), algoCell(cs, an, rateCell))
		}
		row = append(row, algoCell(raw.contrastSide(name, seg), "tcp", rateCell),
			algoCell(comp.contrastSide(name, seg), "tcp", rateCell))
		tb.AddRow(row...)
	}
	b.WriteString(tb.Render())
	b.WriteString(fmt.Sprintf(
		"uniform floor: a k-bit sum over unstructured payload misses ~2^-k (16-bit: %s; 32-bit: ~2.3e-8%%)\n",
		report.Percent(1.0/65536)))
	b.WriteString("(e2e spans include the AAL5 zero padding, so the e2e tcp rate floors at the padding fraction;\n")
	b.WriteString(" the tcp@seg columns cover the transport-checksum span only)\n\n")

	for _, line := range CompressLines(raw, comp) {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// CompressLines renders the greppable raw-vs-compressed pin lines, one
// per channel present on either side: corrupted-delivery counts and the
// bellwethers' undetected counts (e2e span, raw/lz), plus the TCP sum's
// per-segment pair.  Missing sides render "-" so the line shape is
// stable even when one run dropped a channel.
func CompressLines(raw, comp *Tally) []string {
	var out []string
	seg := PlaceSegment.String()
	for _, name := range contrastChannels(raw, comp) {
		rs, cs := raw.contrastSide(name, ""), comp.contrastSide(name, "")
		line := fmt.Sprintf("compress[%s/%s]: raw_corrupted=%s lz_corrupted=%s",
			raw.Mode, name, corruptCell(rs, decimal), corruptCell(cs, decimal))
		for _, an := range contrastAlgos {
			line += fmt.Sprintf(" %s=%s/%s", an, algoCell(rs, an, undetected), algoCell(cs, an, undetected))
		}
		line += fmt.Sprintf(" seg_tcp=%s/%s", algoCell(raw.contrastSide(name, seg), "tcp", undetected),
			algoCell(comp.contrastSide(name, seg), "tcp", undetected))
		out = append(out, line)
	}
	return out
}

// contrastChannels returns the union of the two tallies' channel names,
// raw's order first, comp-only names appended.
func contrastChannels(raw, comp *Tally) []string {
	var names []string
	seen := map[string]bool{}
	for i := range raw.Channels {
		names = append(names, raw.Channels[i].Name)
		seen[raw.Channels[i].Name] = true
	}
	for i := range comp.Channels {
		if !seen[comp.Channels[i].Name] {
			names = append(names, comp.Channels[i].Name)
		}
	}
	return names
}

// contrastSide looks up the placement one side of a contrast cell
// reads: the named placement of the named channel, or the channel's
// scoring placement when placement is "".  nil means the side never ran
// that channel or placement, which every cell renders as "-".
func (t *Tally) contrastSide(channel, placement string) *PlacementTally {
	c, ok := t.Channel(channel)
	if !ok {
		return nil
	}
	if placement == "" {
		return c.scoring()
	}
	return c.Placement(placement)
}

// corruptCell renders a side's corrupted-delivery count, or "-".
func corruptCell(p *PlacementTally, format func(uint64) string) string {
	if p == nil {
		return "-"
	}
	return format(p.Corrupted)
}

// algoCell renders one algorithm's cell from a side's placement, or "-"
// when the side is absent or does not score the algorithm.  rateCell
// further renders "-" when no corrupted delivery was ever scored (the
// zero-candidate case a rate would otherwise misreport as 0%).
func algoCell(p *PlacementTally, algo string, format func(AlgoTally) string) string {
	if p == nil {
		return "-"
	}
	a, found := p.Algo(algo)
	if !found {
		return "-"
	}
	return format(a)
}

func decimal(n uint64) string { return strconv.FormatUint(n, 10) }

func undetected(a AlgoTally) string { return decimal(a.Undetected) }
