package doccheck

import (
	"fmt"
	"os"
	"strings"
)

// CheckFlagTable returns one violation per flag that the "Engine flags"
// table of the README at path marks ✓ in command's column but that
// usage, command's -h output, does not list. It fails when the column
// is missing or marks no flag.
func CheckFlagTable(path, command string, usage []byte) ([]string, error) {
	registered := map[string]bool{}
	for _, line := range strings.Split(string(usage), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			registered[strings.Fields(rest)[0]] = true
		}
	}
	readme, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	_, table, _ := strings.Cut(string(readme), "\n### Engine flags\n")
	col, marked := -1, 0
	var v []string
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		switch {
		case col < 0 && strings.HasPrefix(line, "| flag |"):
			for i, c := range cells {
				if strings.TrimSpace(c) == "`"+command+"`" {
					col = i
				}
			}
		case col > 0 && strings.HasPrefix(line, "| `-") && strings.HasPrefix(strings.TrimSpace(cells[col]), "✓"):
			marked++
			if name := strings.Fields(strings.Trim(cells[1], " `-"))[0]; !registered[name] {
				v = append(v, fmt.Sprintf("%s: the engine-flags table marks -%s for %s, which does not register it", path, name, command))
			}
		}
	}
	if marked == 0 {
		return nil, fmt.Errorf("%s: no engine-flags table column marks a flag for %s", path, command)
	}
	return v, nil
}
