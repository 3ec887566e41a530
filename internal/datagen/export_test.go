package datagen

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"aggview/internal/catalog"
	"aggview/internal/types"
)

// WriteCSV streams a table's rows as CSV with a header line. Any catalog
// reader works — typically a pinned snapshot, so the dump is consistent
// even with a concurrent writer.
func WriteCSV(cat catalog.Reader, tableName string, w io.Writer) error {
	t, ok := cat.Table(tableName)
	if !ok {
		return fmt.Errorf("datagen: table %q not found", tableName)
	}
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Schema))
	for i, c := range t.Schema {
		header[i] = c.ID.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	sc := cat.Store().NewScanner(t.File)
	rec := make([]string, len(t.Schema))
	for {
		page, _, ok, err := sc.NextPage()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, row := range page.AppendRows(nil) {
			if err := writeRecord(cw, row, rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeRecord writes row as a CSV record, through rec.
func writeRecord(cw *csv.Writer, row types.Row, rec []string) error {
	for i, v := range row {
		switch v.K {
		case types.KindString:
			rec[i] = v.S()
		case types.KindFloat:
			rec[i] = strconv.FormatFloat(v.F(), 'g', -1, 64)
		default:
			rec[i] = v.String()
		}
	}
	return cw.Write(rec)
}
